package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/storage/durable"
	"repro/internal/storage/storetest"
)

// dirFiles lists the names in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// checkHolds opens dir and requires it to be exactly ds: one run (none for
// an empty ds), the point count, and the storetest conformance suite.
func checkHolds(t *testing.T, dir string, ds *model.Dataset) {
	t.Helper()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	runs := 1
	if ds.NumPoints() == 0 {
		runs = 0
	}
	if n := db.NumTables(); n != runs {
		t.Fatalf("%d runs, want %d", n, runs)
	}
	if got := liveKeys(t, db); got != ds.NumPoints() {
		t.Fatalf("DB holds %d keys, want %d", got, ds.NumPoints())
	}
	if runs > 0 {
		storetest.Run(t, db, ds)
	}
}

// TestWriteDatasetIsOneRun: a written dataset is one sstable and the
// MANIFEST naming it, and nothing else.
func TestWriteDatasetIsOneRun(t *testing.T) {
	ds := storetest.RandomDataset(30, 40, 30, 0.8)
	dir := filepath.Join(t.TempDir(), "db")
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	if got, want := dirFiles(t, dir), []string{manifestName, tableName(0)}; !slices.Equal(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	checkHolds(t, dir, ds)
}

// TestWriteDatasetMatchesLivePath: the run WriteDataset writes is byte for
// byte the run the live path ends with — every point written through a small
// memtable, flushed into many runs and compacted into one.
func TestWriteDatasetMatchesLivePath(t *testing.T) {
	ds := storetest.RandomDataset(31, 60, 40, 0.7)
	bulk, live := t.TempDir(), t.TempDir()
	if err := WriteDataset(bulk, ds); err != nil {
		t.Fatal(err)
	}
	db, err := Open(live, &Options{MemtableBytes: 4096, MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points() {
		if err := put(db, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.NumTables() < 3 {
		t.Fatalf("live path made %d runs; the test needs a real merge", db.NumTables())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	names := db.tableNames()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("live path left %d runs", len(names))
	}
	want, err := os.ReadFile(filepath.Join(live, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(bulk, tableName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bulk run (%d bytes) differs from the live path's (%d bytes)", len(got), len(want))
	}
}

// TestWriteDatasetReplaces: writing into a directory that already holds a
// database — a bulk-written one, or one with several live runs — leaves
// exactly the new dataset, and the old files are gone.
func TestWriteDatasetReplaces(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 2048, MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range storetest.RandomDataset(32, 20, 20, 1.0).Points() {
		if err := put(db, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(dirFiles(t, dir)); n < 4 {
		t.Fatalf("seed database has only %d files", n)
	}
	for i, ds := range []*model.Dataset{
		storetest.RandomDataset(33, 30, 25, 0.6),
		storetest.RandomDataset(34, 10, 40, 0.9),
		model.NewDataset(nil),
		storetest.RandomDataset(35, 15, 15, 1.0),
	} {
		if err := WriteDataset(dir, ds); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if n := len(dirFiles(t, dir)); n != 1+min(1, ds.NumPoints()) {
			t.Fatalf("write %d left %v", i, dirFiles(t, dir))
		}
		checkHolds(t, dir, ds)
	}
}

// TestWriteDatasetRejectsUnsorted: sortedness is checked, not assumed. A
// point out of order, or a repeated key, fails the write and commits
// nothing: the database already in dir is untouched and no file is left.
func TestWriteDatasetRejectsUnsorted(t *testing.T) {
	dir := t.TempDir()
	ds := storetest.RandomDataset(36, 20, 20, 1.0)
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	sorted := model.NewDataset([]model.Point{{T: 1, OID: 1}, {T: 1, OID: 2}, {T: 2, OID: 1}}).Points()
	for name, pts := range map[string][]model.Point{
		"descending oid":  {sorted[0], sorted[1], {T: 1, OID: 0}},
		"descending tick": {sorted[0], sorted[2], sorted[1]},
		"repeated key":    {sorted[0], sorted[1], sorted[1], sorted[2]},
	} {
		if err := writeRun(dir, pts); err == nil {
			t.Fatalf("%s: write succeeded", name)
		}
		if got := dirFiles(t, dir); !slices.Equal(got, before) {
			t.Fatalf("%s: directory holds %v, want %v", name, got, before)
		}
	}
	checkHolds(t, dir, ds)
}

// TestWriteDatasetCrashPoints kills a write over an existing database on
// either side of its one commit point. Before the commit the reopened
// database is the old one; after it, the new one. Either way the open
// sweeps the other's files.
func TestWriteDatasetCrashPoints(t *testing.T) {
	old := storetest.RandomDataset(37, 25, 20, 0.9)
	next := storetest.RandomDataset(38, 30, 30, 0.8)
	for point, want := range map[string]*model.Dataset{
		"bulk.sstable-written":    old,
		"bulk.manifest-committed": next,
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteDataset(dir, old); err != nil {
				t.Fatal(err)
			}
			fired := armCrash(t, point)
			expectCrash(t, func() {
				if err := WriteDataset(dir, next); err != nil {
					t.Fatal(err)
				}
			})
			if !fired() {
				t.Fatal("crash point never fired")
			}
			durable.CrashPoint = nil
			if n := len(dirFiles(t, dir)); n != 3 {
				t.Fatalf("crash left %v, want the manifest and both runs", dirFiles(t, dir))
			}
			checkHolds(t, dir, want)
			if n := len(dirFiles(t, dir)); n != 2 {
				t.Fatalf("open left %v, want the manifest and one run", dirFiles(t, dir))
			}
		})
	}
}

// openBenchDB writes 100 ticks × 1000 objects as one run and opens it; the
// database closes with the benchmark.
func openBenchDB(b *testing.B) *DB {
	b.Helper()
	pts := make([]model.Point, 0, 100000)
	for i := 0; i < 100000; i++ {
		pts = append(pts, model.Point{T: int32(i / 1000), OID: int32(i % 1000), X: float64(i)})
	}
	dir := b.TempDir()
	if err := WriteDataset(dir, model.NewDataset(pts)); err != nil {
		b.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkWriteDataset writes a 100k-point dataset as one run, each
// iteration replacing the last, and reports the cost per point.
func BenchmarkWriteDataset(b *testing.B) {
	ds := storetest.RandomDataset(39, 1000, 100, 1.0)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDataset(dir, ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ds.NumPoints()), "ns/point")
}

// TestWriteDatasetScale writes half a million points, reopens the
// directory as a fresh handle and reads every point back, both ways the
// miners read: one snapshot scan per tick and one Fetch of the tick's
// whole object set.
func TestWriteDatasetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and reads back 500k points")
	}
	const objs, ticks = 500, 1000
	pts := make([]model.Point, 0, objs*ticks)
	all := make(model.ObjSet, objs)
	for o := range all {
		all[o] = int32(o)
	}
	for tk := int32(0); tk < ticks; tk++ {
		for _, o := range all {
			pts = append(pts, model.Point{T: tk, OID: o, X: float64(tk), Y: float64(o)})
		}
	}
	dir := t.TempDir()
	if err := WriteDataset(dir, model.NewDataset(pts)); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := liveKeys(t, db); got != objs*ticks {
		t.Fatalf("DB holds %d keys, want %d", got, objs*ticks)
	}
	if ts, te := db.TimeRange(); ts != 0 || te != ticks-1 {
		t.Fatalf("TimeRange = [%d,%d]", ts, te)
	}
	for tk := int32(0); tk < ticks; tk++ {
		snap, err := db.Snapshot(tk)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.Fetch(tk, all)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != objs || len(rows) != objs {
			t.Fatalf("tick %d: snapshot %d rows, fetch %d, want %d", tk, len(snap), len(rows), objs)
		}
		for i, r := range rows {
			if r != snap[i] || r.OID != int32(i) || r.X != float64(tk) || r.Y != float64(i) {
				t.Fatalf("tick %d row %d: fetch %+v, snapshot %+v", tk, i, r, snap[i])
			}
		}
	}
}
