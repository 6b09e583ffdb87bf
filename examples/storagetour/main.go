// Storagetour: the paper's §5 in action. The same dataset is materialised
// under all three persistent storage engines — flat file, relational
// (clustered B+tree) and LSM-tree — and the same k/2-hop query runs against
// each, printing wall-clock and I/O statistics. The flat file pays for
// loading everything; the indexed engines serve k/2-hop's two access paths
// (benchmark-point range scans and hop-window point queries) directly.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	convoy "repro"
	"repro/internal/datagen/tdrive"
	"repro/internal/storage"
	"repro/internal/storage/flatfile"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
)

func main() {
	p := tdrive.DefaultParams(5)
	p.Taxis, p.Ticks = 150, 250
	ds := tdrive.Generate(p)
	params := convoy.Params{M: 3, K: 40, Eps: 120}
	fmt.Printf("dataset: %d points; query m=%d k=%d eps=%g\n\n",
		ds.NumPoints(), params.M, params.K, params.Eps)

	dir, err := os.MkdirTemp("", "storagetour")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- k2-File: load the whole flat file, mine in memory. -------------
	flatPath := filepath.Join(dir, "data.k2f")
	if err := flatfile.WriteDataset(flatPath, ds); err != nil {
		log.Fatal(err)
	}
	mem, err := flatfile.Load(flatPath)
	if err != nil {
		log.Fatal(err)
	}
	ms := storage.NewMemStore(mem)
	res, err := convoy.Mine(ms, params, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("k2-File (load + mine in memory)", res, ms.Stats())

	// --- k2-RDBMS: clustered B+tree on (t, oid). -------------------------
	rdbmsPath := filepath.Join(dir, "data.k2r")
	if err := relational.WriteDataset(rdbmsPath, ds, nil); err != nil {
		log.Fatal(err)
	}
	rs, err := relational.Open(rdbmsPath, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err = convoy.Mine(rs, params, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("k2-RDBMS (B+tree)", res, rs.Stats())
	rs.Close()

	// --- k2-LSMT: log-structured merge-tree. -----------------------------
	lsmDir := filepath.Join(dir, "lsmdb")
	if err := lsm.WriteDataset(lsmDir, ds, nil); err != nil {
		log.Fatal(err)
	}
	db, err := lsm.Open(lsmDir, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err = convoy.Mine(db, params, nil)
	if err != nil {
		log.Fatal(err)
	}
	report("k2-LSMT (LSM-tree)", res, db.Stats())
	db.Close()
}

func report(name string, res *convoy.Result, stats *storage.IOStats) {
	s := stats.Snapshot()
	fmt.Printf("%s\n", name)
	fmt.Printf("  convoys=%d time=%s\n", len(res.Convoys), res.Duration)
	fmt.Printf("  io: scans=%d point-queries=%d points-read=%d seeks=%d bytes=%d\n\n",
		s.SnapshotScans, s.PointQueries, s.PointsRead, s.Seeks, s.BytesRead)
}
