package lsm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// --- Options boundaries -------------------------------------------------

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   *Options
		want Options
	}{
		{"nil", nil, Options{MemtableBytes: 4 << 20, MaxTables: 6, BlockCacheBytes: 4 << 20}},
		{"zero", &Options{}, Options{MemtableBytes: 4 << 20, MaxTables: 6, BlockCacheBytes: 4 << 20}},
		{"negative", &Options{MemtableBytes: -1, MaxTables: -3, BlockCacheBytes: -7}, Options{MemtableBytes: 4 << 20, MaxTables: 6, BlockCacheBytes: 4 << 20}},
		// MaxTables 1 is the documented floor ("always compact to a single
		// run"); it used to be silently replaced by the default 6.
		{"max-tables-one", &Options{MaxTables: 1}, Options{MemtableBytes: 4 << 20, MaxTables: 1, BlockCacheBytes: 4 << 20}},
		{"max-tables-two", &Options{MaxTables: 2}, Options{MemtableBytes: 4 << 20, MaxTables: 2, BlockCacheBytes: 4 << 20}},
		{"explicit", &Options{MemtableBytes: 512, MaxTables: 9, BlockCacheBytes: 1 << 20}, Options{MemtableBytes: 512, MaxTables: 9, BlockCacheBytes: 1 << 20}},
	}
	for _, tc := range cases {
		if got := tc.in.withDefaults(); got != tc.want {
			t.Errorf("%s: withDefaults() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestMaxTablesOneAlwaysCompacts(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 512, MaxTables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := put(db, model.Point{T: int32(i / 50), OID: int32(i % 50), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.waitCompactions()
	if n := db.NumTables(); n != 1 {
		t.Fatalf("MaxTables=1 should converge to a single run, got %d", n)
	}
}

// --- mergeIter edge cases -----------------------------------------------

// faultyIter yields a fixed record list but fails sticky after failAt
// records, modelling an sstable whose scan dies mid-stream.
type faultyIter struct {
	keys   []uint64
	i      int
	failAt int
	e      error
}

var errInjectedScan = errors.New("injected scan failure")

func (it *faultyIter) valid() bool   { return it.e == nil && it.i < len(it.keys) }
func (it *faultyIter) key() uint64   { return it.keys[it.i] }
func (it *faultyIter) value() []byte { return make([]byte, storage.ValueSize) }
func (it *faultyIter) tomb() bool    { return false }
func (it *faultyIter) next() {
	it.i++
	if it.i >= it.failAt {
		it.e = errInjectedScan
	}
}
func (it *faultyIter) srcErr() error { return it.e }

func memWith(vals map[int32]float64) memRun {
	var m memtable
	for oid, x := range vals {
		m.put(keyWord(1, oid), storage.EncodeValue(x, 0), false)
	}
	return m.sealed()
}

func TestMergeIterDuplicateKeyAcrossManySources(t *testing.T) {
	// The same key lives in four sources; the one with the largest slice
	// index must win, and the key must be yielded exactly once.
	srcs := make([]kvIterator, 4)
	for i := range srcs {
		srcs[i] = memWith(map[int32]float64{7: float64(i), int32(10 + i): 1}).iterator(0)
	}
	m := newMergeIter(srcs)
	seen := map[int32]float64{}
	for ; m.valid(); m.next() {
		oid := wordOID(m.key())
		if _, dup := seen[oid]; dup {
			t.Fatalf("key oid=%d yielded twice", oid)
		}
		x, _ := storage.DecodeValue(m.value())
		seen[oid] = x
	}
	if err := m.err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("merged %d distinct keys, want 5 (got %v)", len(seen), seen)
	}
	if seen[7] != 3 {
		t.Fatalf("duplicate key resolved to source value %v, want newest (3)", seen[7])
	}
}

func TestMergeIterSourceErrorSurfaces(t *testing.T) {
	var keys []uint64
	for oid := int32(0); oid < 6; oid++ {
		keys = append(keys, keyWord(1, oid))
	}
	faulty := &faultyIter{keys: keys, failAt: 3}
	healthy := memWith(map[int32]float64{100: 1, 101: 2}).iterator(0)
	m := newMergeIter([]kvIterator{faulty, healthy})
	n := 0
	for ; m.valid(); m.next() {
		n++
	}
	// Partial results must have been yielded before the failure...
	if n < 3 {
		t.Fatalf("merge yielded %d records before source failure, want ≥ 3", n)
	}
	// ...and err() must still surface the mid-scan error afterwards.
	if err := m.err(); !errors.Is(err, errInjectedScan) {
		t.Fatalf("err() = %v, want injected scan failure", err)
	}
}

func TestMergeIterSSTableErrorSurfaces(t *testing.T) {
	// Real-source variant: close the table's file mid-scan so the next
	// block read fails; err() must report it after the partial results.
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := put(db, model.Point{T: int32(i), OID: 1, X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tab := db.tables[0]
	it := tab.iterator(0, nil)
	m := newMergeIter([]kvIterator{it})
	n := 0
	for ; m.valid(); m.next() {
		n++
		if n == 100 {
			tab.f.Close() // the next block load must fail
		}
	}
	if n >= 1000 {
		t.Fatalf("scan should have died mid-stream, yielded all %d records", n)
	}
	if err := m.err(); err == nil {
		t.Fatalf("err() = nil after mid-scan read failure")
	}
	// Reopen the handle so db.Close doesn't double-close.
	db.tables = db.tables[:0]
}

func TestMergeIterAllEmptySources(t *testing.T) {
	for _, srcs := range [][]kvIterator{
		nil,
		{},
		{memRun(nil).iterator(0)},
		{memRun(nil).iterator(0), memRun(nil).iterator(0), nil},
	} {
		m := newMergeIter(srcs)
		if m.valid() {
			t.Fatalf("empty merge (%d sources) reports valid", len(srcs))
		}
		if err := m.err(); err != nil {
			t.Fatalf("empty merge err = %v", err)
		}
	}
}

// --- Tombstones ---------------------------------------------------------

func TestDeleteKVBasic(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := storage.EncodeKey(1, 1)
	val := storage.EncodeValue(1, 2)
	if err := db.PutKV(key, val); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteKV(key); err != nil {
		t.Fatal(err)
	}
	if v, err := get(db, 1, 1); err != nil || v != nil {
		t.Fatalf("deleted key visible: %v, %v", v, err)
	}
	// Deleting an absent key is fine.
	if err := db.DeleteKV(storage.EncodeKey(9, 9)); err != nil {
		t.Fatal(err)
	}
	// Re-put after delete resurrects the key.
	val2 := storage.EncodeValue(3, 4)
	if err := db.PutKV(key, val2); err != nil {
		t.Fatal(err)
	}
	v, err := get(db, 1, 1)
	if err != nil || v == nil {
		t.Fatalf("re-put key invisible: %v, %v", v, err)
	}
	if x, _ := storage.DecodeValue(v); x != 3 {
		t.Fatalf("re-put value = %v", x)
	}
}

func TestTombstoneShadowsAcrossRuns(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for oid := int32(0); oid < 10; oid++ {
		if err := put(db, model.Point{T: 1, OID: oid, X: float64(oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Delete the evens in a newer run.
	for oid := int32(0); oid < 10; oid += 2 {
		if err := db.DeleteKV(storage.EncodeKey(1, oid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		snap, err := db.Snapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != 5 {
			t.Fatalf("%s: snapshot has %d rows, want 5: %v", stage, len(snap), snap)
		}
		for _, r := range snap {
			if r.OID%2 == 0 {
				t.Fatalf("%s: deleted oid %d visible", stage, r.OID)
			}
		}
		if v, err := get(db, 1, 4); err != nil || v != nil {
			t.Fatalf("%s: get of deleted key = %v, %v", stage, v, err)
		}
		n := 0
		if err := db.Scan(storage.EncodeKey(-1<<31, -1<<31), func(k, v []byte) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("%s: scan saw %d live keys, want 5", stage, n)
		}
	}
	check("tombstones in newer run")

	// Survive reopen (tombstones replay from the recovered run).
	dirDB := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dirDB, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	check("after reopen")

	// Full compaction GCs the tombstones: physically gone, still deleted.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := db.NumTables(); n != 1 {
		t.Fatalf("compaction left %d tables", n)
	}
	if db.tables[0].tombs != 0 {
		t.Fatalf("bottom-level compaction kept %d tombstones", db.tables[0].tombs)
	}
	if db.tables[0].count != 5 {
		t.Fatalf("compacted run has %d records, want 5", db.tables[0].count)
	}
	check("after bottom-level GC")
}

func TestTombstoneKeptAboveBottomLevel(t *testing.T) {
	// Three runs: a big oldest run holding the key, a tombstone run, and a
	// small unrelated run. A window merge that excludes the oldest run must
	// CARRY the tombstone (dropping it would resurrect the old value).
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 1 << 20, MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Oldest run: expensive (many records) so the policy avoids it.
	for i := 0; i < 2000; i++ {
		if err := put(db, model.Point{T: 1, OID: int32(i), X: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Middle run: tombstone for oid 42.
	if err := db.DeleteKV(storage.EncodeKey(1, 42)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Newest run: one unrelated record.
	if err := put(db, model.Point{T: 2, OID: 1, X: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Force one size-tiered merge with MaxTables=2 semantics: window of 2,
	// cheapest is [middle, newest] — not the bottom level.
	db.mu.Lock()
	db.opts.MaxTables = 2
	db.mu.Unlock()
	progressed, err := db.compactOnce(false)
	if err != nil || !progressed {
		t.Fatalf("compactOnce = %v, %v", progressed, err)
	}
	if n := db.NumTables(); n != 2 {
		t.Fatalf("window merge left %d tables, want 2", n)
	}
	if got := db.tables[1].tombs; got != 1 {
		t.Fatalf("non-bottom merge kept %d tombstones, want 1", got)
	}
	if v, err := get(db, 1, 42); err != nil || v != nil {
		t.Fatalf("deleted key resurrected after window merge: %v, %v", v, err)
	}
	// Now a full compaction reaches the bottom: tombstone GC'd.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := db.tables[0].tombs; got != 0 {
		t.Fatalf("bottom merge kept %d tombstones", got)
	}
	if v, _ := get(db, 1, 42); v != nil {
		t.Fatalf("deleted key visible after GC")
	}
}

// --- Background compaction under concurrency ----------------------------

func TestBackgroundCompactionConcurrentReads(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 2048, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			get(db, int32(i%40), int32(i%40))
			db.Snapshot(int32(i % 40))
		}
	}()
	for i := 0; i < 4000; i++ {
		if err := put(db, model.Point{T: int32(i % 40), OID: int32(i % 40), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	db.waitCompactions()
	if n := db.NumTables(); n > 3 {
		t.Fatalf("compactor did not keep up: %d tables", n)
	}
	// Every key must hold its newest value.
	for k := int32(0); k < 40; k++ {
		i := 3960 + int(k) // last write of each key in the loop above
		rows, err := db.Fetch(k, model.NewObjSet(k))
		if err != nil || len(rows) != 1 {
			t.Fatalf("key %d: %v, %v", k, rows, err)
		}
		if rows[0].X != float64(i) {
			t.Fatalf("key %d: X = %v, want %d", k, rows[0].X, i)
		}
	}
}

// BenchmarkPutKVSustained measures the write path while flushes and
// background compactions churn continuously (tiny memtable, tight
// MaxTables). Before background compaction, every MaxTables-th flush
// performed the whole merge inline under db.mu, so the same workload
// showed periodic latency cliffs on this benchmark.
func BenchmarkPutKVSustained(b *testing.B) {
	db, err := Open(b.TempDir(), &Options{MemtableBytes: 64 << 10, MaxTables: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := storage.EncodeKey(int32(i/1000), int32(i%1000))
		val := storage.EncodeValue(float64(i), 0)
		if err := db.PutKV(key, val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	db.waitCompactions()
}

// BenchmarkCompactMerge measures one full merge of several overlapping runs
// (the unit of background work).
func BenchmarkCompactMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open(b.TempDir(), &Options{MemtableBytes: 1 << 20, MaxTables: 100})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 6; r++ {
			for j := 0; j < 5000; j++ {
				put(db, model.Point{T: int32(j / 100), OID: int32(j % 100), X: float64(r)})
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}
