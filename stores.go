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
// k2-File layout). A flat file has no index, so it is not opened as a
// Store: LoadFlatFile reads it back whole, and the dataset is mined in
// memory, the paper's k2-File setup.
func WriteFlatFile(path string, ds *Dataset) error {
	return flatfile.WriteDataset(path, ds)
}

// LoadFlatFile reads an entire flat file into an in-memory dataset.
func LoadFlatFile(path string) (*Dataset, error) { return flatfile.Load(path) }

// WriteTable materialises ds as a B+tree table (the paper's k2-RDBMS
// layout: a clustered index on (t, oid) whose leaves hold the records). The
// tree is built bottom-up in one pass; a table is never modified after.
func WriteTable(path string, ds *Dataset) error {
	return relational.WriteDataset(path, ds, nil)
}

// OpenTable opens a B+tree table read-only as a Store. Reading never
// modifies the file, and concurrent readers share one page cache.
func OpenTable(path string) (Store, error) { return relational.Open(path, nil) }

// WriteLSM materialises ds as an LSM-tree database in dir (the paper's
// k2-LSMT layout): one sorted run, committed by one manifest write, which
// replaces any database dir held.
func WriteLSM(dir string, ds *Dataset) error {
	return lsm.WriteDataset(dir, ds, nil)
}

// OpenLSM opens an LSM-tree database written by WriteLSM as a Store.
// Reads run against pinned snapshots of its runs, with no lock held
// across I/O, so concurrent miners share one store.
func OpenLSM(dir string) (Store, error) { return lsm.Open(dir, nil) }
