package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

var _ storage.Store = (*DB)(nil)

// put writes one point through the live path: memtable, flush, compaction.
func put(db *DB, p model.Point) error {
	return db.PutKV(storage.EncodeKey(p.T, p.OID), storage.EncodeValue(p.X, p.Y))
}

// get returns the value bytes stored for (t, oid), or nil if absent or
// deleted, read by a Scan from the key under a fresh snapshot.
func get(db *DB, t, oid int32) ([]byte, error) {
	s, err := db.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return snapGet(s, t, oid)
}

// snapGet is get against snapshot s: the first live record a Scan from the
// key yields, when it is that key.
func snapGet(s *Snapshot, t, oid int32) ([]byte, error) {
	key := storage.EncodeKey(t, oid)
	var v []byte
	err := s.Scan(key, func(k, val []byte) bool {
		if bytes.Equal(k, key[:]) {
			v = append([]byte(nil), val...)
		}
		return false
	})
	return v, err
}

func TestConformance(t *testing.T) {
	ds := storetest.RandomDataset(20, 40, 30, 0.8)
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	storetest.Run(t, db, ds)
}

func TestConformanceManySmallTables(t *testing.T) {
	// Tiny memtable forces many flushes; MaxTables large enough to avoid
	// compaction so reads must merge across runs.
	ds := storetest.RandomDataset(21, 25, 25, 0.7)
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 2048, MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points() {
		if err := put(db, p); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumTables() < 3 {
		t.Fatalf("expected several sstables, got %d", db.NumTables())
	}
	storetest.Run(t, db, ds)
	db.Close()
}

func TestMemtableVisibleBeforeFlush(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := put(db, model.Point{OID: 7, T: 3, X: 1.5, Y: 2.5}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Fetch(3, model.NewObjSet(7))
	if err != nil || len(rows) != 1 || rows[0].X != 1.5 {
		t.Fatalf("Fetch from memtable = %v, %v", rows, err)
	}
	snap, err := db.Snapshot(3)
	if err != nil || len(snap) != 1 {
		t.Fatalf("Snapshot from memtable = %v, %v", snap, err)
	}
}

func TestOverwriteAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := put(db, model.Point{OID: 1, T: 1, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := put(db, model.Point{OID: 1, T: 1, X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Newest run must win for both point get and snapshot scan.
	rows, err := db.Fetch(1, model.NewObjSet(1))
	if err != nil || len(rows) != 1 || rows[0].X != 2 {
		t.Fatalf("Fetch overwrite = %v, %v", rows, err)
	}
	snap, err := db.Snapshot(1)
	if err != nil || len(snap) != 1 || snap[0].X != 2 {
		t.Fatalf("Snapshot overwrite = %v, %v", snap, err)
	}
	// After compaction the value must survive.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.NumTables() != 1 {
		t.Fatalf("compaction should leave one table, got %d", db.NumTables())
	}
	rows, err = db.Fetch(1, model.NewObjSet(1))
	if err != nil || len(rows) != 1 || rows[0].X != 2 {
		t.Fatalf("post-compaction Fetch = %v, %v", rows, err)
	}
}

// TestCloseFlushes: there is no log beside the runs, so Close is a
// durability barrier — it flushes the memtable — and a kill before any
// barrier loses exactly the memtable.
func TestCloseFlushes(t *testing.T) {
	pts := []model.Point{
		{OID: 1, T: 0, X: 1, Y: 1},
		{OID: 2, T: 0, X: 2, Y: 2},
		{OID: 1, T: 1, X: 3, Y: 3},
	}
	for _, tc := range []struct {
		name  string
		stop  func(*DB) error
		count uint64
		rows  int // of (t=1, oid=1)
	}{
		{"close", (*DB).Close, 3, 1},
		{"abandon", func(db *DB) error { db.abandon(); return nil }, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if err := put(db, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.stop(db); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			if got := db2.Count(); got != tc.count {
				t.Fatalf("reopened Count = %d, want %d", got, tc.count)
			}
			rows, err := db2.Fetch(1, model.NewObjSet(1))
			if err != nil || len(rows) != tc.rows || (tc.rows == 1 && rows[0].X != 3) {
				t.Fatalf("reopened Fetch = %v, %v; want %d rows", rows, err, tc.rows)
			}
		})
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	ds := storetest.RandomDataset(22, 30, 20, 0.9)
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	storetest.Run(t, db, ds)
}

func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 1024, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := put(db, model.Point{OID: int32(i % 50), T: int32(i / 50), X: float64(i), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	db.waitCompactions()
	if db.NumTables() > 3 {
		t.Fatalf("auto compaction did not bound runs: %d", db.NumTables())
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := put(db, model.Point{}); err == nil {
		t.Fatalf("Put after Close should fail")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close should be nil, got %v", err)
	}
}

// TestFlushAfterCloseIsRejected: Close flushes the memtable itself and
// leaves the DB refusing every later flush — a Flush after Close used to
// commit a manifest naming only the leftover memtable, orphaning every
// earlier run.
func TestFlushAfterCloseIsRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := put(db, model.Point{T: 1, OID: int32(i), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := put(db, model.Point{T: 2, OID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); !errors.Is(err, errClosed) {
		t.Fatalf("Flush after Close = %v, want errClosed", err)
	}
	if err := db.Compact(); !errors.Is(err, errClosed) {
		t.Fatalf("Compact after Close = %v, want errClosed", err)
	}
	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Count(); got != 101 {
		t.Fatalf("reopened Count = %d, want 101", got)
	}
	if rows, err := db.Snapshot(1); err != nil || len(rows) != 100 {
		t.Fatalf("reopened Snapshot(1) = %d rows, %v; want 100", len(rows), err)
	}
}

// TestFailedOpenClosesTables: an Open that fails on its second run closes
// the first — a caller that retries (the archive does, on every start) must
// not leak a descriptor per attempt.
func TestFailedOpenClosesTables(t *testing.T) {
	openFDs := func() (int, error) {
		fds, err := os.ReadDir("/proc/self/fd")
		return len(fds), err
	}
	if _, err := openFDs(); err != nil {
		t.Skip("needs /proc/self/fd")
	}
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	for gen := int32(0); gen < 2; gen++ {
		if err := put(db, model.Point{T: gen, OID: 1}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	second := db.tables[1].path
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(second, 10); err != nil {
		t.Fatal(err)
	}
	before, _ := openFDs()
	for i := 0; i < 200; i++ {
		if db, err := Open(dir, nil); err == nil {
			db.Close()
			t.Fatal("Open of a directory with a truncated run succeeded")
		}
	}
	if after, _ := openFDs(); after > before {
		t.Fatalf("200 failed opens grew the descriptor count from %d to %d", before, after)
	}
}

// Property: the whole DB behaves like a map under random puts with
// overwrites, random flushes and compactions.
func TestDBMatchesMapModel(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 4096, MaxTables: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(77))
	type key struct{ t, oid int32 }
	modelMap := map[key][2]float64{}
	for i := 0; i < 3000; i++ {
		k := key{t: int32(rng.Intn(40)), oid: int32(rng.Intn(40))}
		v := [2]float64{rng.Float64(), rng.Float64()}
		modelMap[k] = v
		if err := put(db, model.Point{OID: k.oid, T: k.t, X: v[0], Y: v[1]}); err != nil {
			t.Fatal(err)
		}
		if i%701 == 700 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if i%1303 == 1302 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, v := range modelMap {
		rows, err := db.Fetch(k.t, model.NewObjSet(k.oid))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].X != v[0] || rows[0].Y != v[1] {
			t.Fatalf("Fetch(%v) = %v, want %v", k, rows, v)
		}
	}
	// Snapshot per timestamp equals the model's row set.
	for tt := int32(0); tt < 40; tt++ {
		var want int
		for k := range modelMap {
			if k.t == tt {
				want++
			}
		}
		snap, err := db.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != want {
			t.Fatalf("Snapshot(%d) = %d rows, want %d", tt, len(snap), want)
		}
		for i := 1; i < len(snap); i++ {
			if snap[i-1].OID >= snap[i].OID {
				t.Fatalf("Snapshot(%d) not sorted by OID", tt)
			}
		}
	}
}

func TestMemtableOrderedIteration(t *testing.T) {
	m := newMemtable(1)
	rng := rand.New(rand.NewSource(9))
	n := 500
	for i := 0; i < n; i++ {
		k := keyWord(int32(rng.Intn(100)), int32(rng.Intn(100)))
		m.put(k, storage.EncodeValue(float64(i), 0), false)
	}
	var prev uint64
	count := 0
	for it := m.iterator(0); it.valid(); it.next() {
		if count > 0 && prev >= it.key() {
			t.Fatalf("memtable iteration out of order")
		}
		prev = it.key()
		count++
	}
	if count != m.len() {
		t.Fatalf("iterated %d, len %d", count, m.len())
	}
}

func TestMemtableSeek(t *testing.T) {
	m := newMemtable(2)
	for _, tt := range []int32{10, 20, 30} {
		m.put(keyWord(tt, 0), storage.EncodeValue(0, 0), false)
	}
	it := m.iterator(keyWord(15, 0))
	if !it.valid() {
		t.Fatalf("seek should find 20")
	}
	kt := wordTime(it.key())
	if kt != 20 {
		t.Fatalf("seek landed on %d, want 20", kt)
	}
}

func TestSSTableGarbageRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.sst")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path); err == nil {
		t.Fatalf("openSSTable of garbage should fail")
	}
	big := make([]byte, 1000)
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTable(path); err == nil {
		t.Fatalf("openSSTable of zeros should fail")
	}
}

func TestMergeIterNewestWins(t *testing.T) {
	old := newMemtable(1)
	newer := newMemtable(2)
	k := keyWord(1, 1)
	old.put(k, storage.EncodeValue(1, 0), false)
	newer.put(k, storage.EncodeValue(2, 0), false)
	old.put(keyWord(0, 5), storage.EncodeValue(9, 0), false)

	m := newMergeIter([]kvIterator{old.iterator(0), newer.iterator(0)})
	var got []float64
	for ; m.valid(); m.next() {
		x, _ := storage.DecodeValue(m.value())
		got = append(got, x)
	}
	if len(got) != 2 || got[0] != 9 || got[1] != 2 {
		t.Fatalf("merge output = %v, want [9 2]", got)
	}
}

func TestSSTableSparseKeySpace(t *testing.T) {
	// Keys far apart stress blockFor's boundary handling.
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := put(db, model.Point{OID: int32(i * 1000), T: int32(i * 100), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 499, 998, 999} {
		rows, err := db.Fetch(int32(i*100), model.NewObjSet(int32(i*1000)))
		if err != nil || len(rows) != 1 || rows[0].X != float64(i) {
			t.Fatalf("Fetch %d = %v, %v", i, rows, err)
		}
	}
	// Absent keys below the first and above the last key.
	if rows, _ := db.Fetch(-50, model.NewObjSet(1)); len(rows) != 0 {
		t.Fatalf("fetch below range should be empty")
	}
	if rows, _ := db.Fetch(1<<30, model.NewObjSet(1)); len(rows) != 0 {
		t.Fatalf("fetch above range should be empty")
	}
}

func TestStatsAccounting(t *testing.T) {
	ds := storetest.RandomDataset(23, 20, 10, 1.0)
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Snapshot(5); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Snapshot()
	if st.SnapshotScans != 1 || st.PointsRead != 20 {
		t.Fatalf("scan stats: %+v", st)
	}
	db.Stats().Reset()
	if _, err := db.Fetch(5, model.NewObjSet(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	st = db.Stats().Snapshot()
	if st.PointQueries != 3 || st.PointsRead != 3 {
		t.Fatalf("fetch stats: %+v", st)
	}
}

func TestManifestSurvivesTmpFile(t *testing.T) {
	// A leftover MANIFEST.tmp must not break opening.
	ds := storetest.RandomDataset(24, 5, 5, 1.0)
	dir := t.TempDir()
	if err := WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open with stale tmp: %v", err)
	}
	db.Close()
}

// TestPutKVScan exercises the raw key/value surface the archive indexes
// use: arbitrary (key, value) pairs round-trip through memtable, flush and
// compaction, Scan walks them merged in key order from any start key,
// overwrites shadow older runs, and an early-stop fn halts the walk.
func TestPutKVScan(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 1 << 10, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 500
	key := func(i int) [storage.KeySize]byte { return storage.EncodeKey(int32(i%7), int32(i)) }
	val := func(i int, gen uint32) (v [storage.ValueSize]byte) {
		binary.LittleEndian.PutUint64(v[0:8], uint64(i))
		binary.LittleEndian.PutUint32(v[8:12], gen)
		return v
	}
	for i := 0; i < n; i++ {
		if err := db.PutKV(key(i), val(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Overwrite a slice of keys in a newer generation; they live in the
	// memtable while generation 1 sits in sstables.
	for i := 100; i < 200; i++ {
		if err := db.PutKV(key(i), val(i, 2)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		got     int
		prevKey []byte
	)
	err = db.Scan(storage.EncodeKey(-1<<31, -1<<31), func(k, v []byte) bool {
		if prevKey != nil && bytes.Compare(k, prevKey) <= 0 {
			t.Fatalf("scan out of order at record %d", got)
		}
		prevKey = append(prevKey[:0], k...)
		i := int(binary.LittleEndian.Uint64(v[0:8]))
		gen := binary.LittleEndian.Uint32(v[8:12])
		wantGen := uint32(1)
		if i >= 100 && i < 200 {
			wantGen = 2
		}
		if gen != wantGen {
			t.Fatalf("key for %d: generation %d, want %d", i, gen, wantGen)
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scanned %d records, want %d", got, n)
	}

	// Start mid-keyspace: only keys ≥ start appear.
	start := storage.EncodeKey(4, -1<<31)
	count := 0
	if err := db.Scan(start, func(k, v []byte) bool {
		if bytes.Compare(k, start[:]) < 0 {
			t.Fatal("scan yielded key below start")
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%7 >= 4 {
			want++
		}
	}
	if count != want {
		t.Fatalf("suffix scan got %d records, want %d", count, want)
	}

	// Early stop.
	count = 0
	if err := db.Scan(storage.EncodeKey(-1<<31, -1<<31), func(k, v []byte) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early-stop scan visited %d records, want 10", count)
	}
}

// TestPutKVReopen: raw records survive Close (runs flushed while writing
// plus the final memtable flush) and manifest reload.
func TestPutKVReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var v [storage.ValueSize]byte
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint64(v[:8], uint64(i))
		if err := db.PutKV(storage.EncodeKey(0, int32(i)), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	count := 0
	if err := db.Scan(storage.EncodeKey(-1<<31, -1<<31), func(k, val []byte) bool {
		_, oid := storage.DecodeKey(k)
		if got := binary.LittleEndian.Uint64(val[:8]); got != uint64(oid) {
			t.Fatalf("oid %d: value %d", oid, got)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Fatalf("reopened scan found %d records, want 300", count)
	}
}
