package convoy

import (
	"repro/internal/storage/flatfile"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
)

// This file exposes the persistent storage engines of the paper's §5
// through the public API, so a dataset can be materialised once and mined
// many times with different parameters (the paper's requirement 6: the
// physical layout must not depend on m, k or eps).

// WriteFlatFile materialises ds as a sorted binary flat file (the paper's
// k2-File layout). Best mined by loading fully: see LoadFlatFile.
func WriteFlatFile(path string, ds *Dataset) error {
	return flatfile.WriteDataset(path, ds)
}

// OpenFlatFile opens a flat file as a Store. Snapshot scans are cheap;
// point queries cost O(log n) seeks each — the paper's k2-File variant
// therefore loads the file into memory first (LoadFlatFile).
func OpenFlatFile(path string) (Store, error) { return flatfile.Open(path) }

// LoadFlatFile reads an entire flat file into an in-memory dataset.
func LoadFlatFile(path string) (*Dataset, error) {
	fs, err := flatfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	return fs.Load()
}

// WriteTable materialises ds as a B+tree table (the paper's k2-RDBMS
// layout: a clustered index on (t, oid)).
func WriteTable(path string, ds *Dataset) error {
	return relational.WriteDataset(path, ds, nil)
}

// OpenTable opens a B+tree table as a Store.
func OpenTable(path string) (Store, error) { return relational.Open(path, nil) }

// WriteLSM materialises ds as an LSM-tree database in dir (the paper's
// k2-LSMT layout), flushing and compacting to a single sorted run.
func WriteLSM(dir string, ds *Dataset) error {
	return lsm.WriteDataset(dir, ds, nil)
}

// OpenLSM opens an LSM-tree database as a Store. The returned store also
// accepts live inserts through the underlying type (see package
// repro/internal/storage/lsm for the full API); they are durable once its
// Flush or Close has returned — the engine keeps no write-ahead log.
func OpenLSM(dir string) (Store, error) { return lsm.Open(dir, nil) }
