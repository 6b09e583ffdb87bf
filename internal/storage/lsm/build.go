package lsm

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/durable"
)

// WriteDataset writes ds into dir as a database of one bottom-level run:
// one sstable streamed straight from the dataset's sorted points, then one
// MANIFEST write that names it. Nothing passes through a memtable, a flush
// or a compaction — the paper's k2-LSMT is loaded once and then only read
// (§5). Live writers (PutKV, and so the archive's indexes) keep that path.
//
// Whatever database dir held is replaced, and the MANIFEST write is the one
// commit point: a crash before it leaves the old database whole and the new
// sstable an orphan; a crash after it leaves the new database and the old
// sstables orphans. Either way the next Open sweeps the orphans.
func WriteDataset(dir string, ds *model.Dataset) error {
	return writeRun(dir, ds.Points())
}

// writeRun commits pts as dir's only run. They must be strictly ascending
// by (t, oid): the sstable writer checks every key against the one before
// and fails, committing nothing, on the first that is not above it. An
// empty pts commits a database with no runs.
func writeRun(dir string, pts []model.Point) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("lsm: mkdir: %w", err)
	}
	var live []string
	if len(pts) > 0 {
		name, err := unusedTableName(dir)
		if err != nil {
			return err
		}
		if err := writeSSTable(filepath.Join(dir, name), &pointIter{pts: pts}, true); err != nil {
			return err
		}
		durable.Crash("bulk.sstable-written")
		live = append(live, name)
	}
	if err := durable.WriteFile(filepath.Join(dir, manifestName), manifestData(live)); err != nil {
		for _, name := range live {
			os.Remove(filepath.Join(dir, name))
		}
		return err
	}
	durable.Crash("bulk.manifest-committed")
	sweepOrphans(dir, live)
	return nil
}

// unusedTableName returns an sstable name numbered above every sst-N.sst in
// dir, so a new run never overwrites a file the committed MANIFEST names.
func unusedTableName(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("lsm: %w", err)
	}
	seq := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "sst-%d.sst", &n); err == nil && n >= seq {
			seq = n + 1
		}
	}
	return tableName(seq), nil
}

// pointIter presents sorted points as the record stream of a new run.
type pointIter struct {
	pts []model.Point
	k   [storage.KeySize]byte
	v   [storage.ValueSize]byte
}

func (it *pointIter) valid() bool { return len(it.pts) > 0 }
func (it *pointIter) key() []byte {
	it.k = storage.EncodeKey(it.pts[0].T, it.pts[0].OID)
	return it.k[:]
}
func (it *pointIter) value() []byte {
	it.v = storage.EncodeValue(it.pts[0].X, it.pts[0].Y)
	return it.v[:]
}
func (it *pointIter) tomb() bool { return false }
func (it *pointIter) next()      { it.pts = it.pts[1:] }

var _ kvIterator = (*pointIter)(nil)
