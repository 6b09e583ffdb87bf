package lsm

import (
	"errors"
	"fmt"
	"slices"
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
		got := tc.in.withDefaults()
		if got.MemtableBytes != tc.want.MemtableBytes || got.MaxTables != tc.want.MaxTables ||
			got.BlockCacheBytes != tc.want.BlockCacheBytes || got.Drop != nil {
			t.Errorf("%s: withDefaults() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Drop is the caller's, and carried through as it is.
	called := false
	(&Options{Drop: func(_, _ []byte) bool { called = true; return false }}).withDefaults().Drop(nil, nil)
	if !called {
		t.Error("withDefaults() lost Options.Drop")
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
		m.put(keyWord(1, oid), storage.EncodeValue(x, 0))
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

// --- Drop -----------------------------------------------------------

// TestDropOnlyIntoOldestRun: Options.Drop is asked only by a write whose
// output is the oldest run — the flush into an empty table list, a window
// merge that starts at the oldest run, a full Compact — and never by a
// flush above older runs or a window merge above the oldest run, where a
// dropped record would uncover an older version of its key.
func TestDropOnlyIntoOldestRun(t *testing.T) {
	var (
		mu    sync.Mutex
		asked []string // the tables Drop was asked about, by first key's tick
		drop  bool     // whether Drop reports true (for oid 42 only)
	)
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 1 << 20, MaxTables: 100,
		Drop: func(key, _ []byte) bool {
			mu.Lock()
			defer mu.Unlock()
			tick, oid := storage.DecodeKey(key)
			if len(asked) == 0 || asked[len(asked)-1] != fmt.Sprint(tick) {
				asked = append(asked, fmt.Sprint(tick))
			}
			return drop && oid == 42
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	flushed := func(tick int32, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := put(db, model.Point{T: tick, OID: int32(i), X: float64(tick)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	takeAsked := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := asked
		asked = nil
		return out
	}
	// The first flush writes the oldest run: Drop is asked about it.
	flushed(1, 2000)
	if got := takeAsked(); !slices.Equal(got, []string{"1"}) {
		t.Fatalf("flush into an empty table list asked Drop about ticks %v, want [1]", got)
	}
	// Flushes above it are not asked, even when Drop would say yes.
	mu.Lock()
	drop = true
	mu.Unlock()
	flushed(2, 100)
	flushed(3, 100)
	if got := takeAsked(); len(got) != 0 {
		t.Fatalf("flushes above the oldest run asked Drop about ticks %v", got)
	}
	// A window merge of the two newest runs (the oldest is the expensive
	// one) is not asked either, and keeps tick 2's oid 42.
	db.mu.Lock()
	db.opts.MaxTables = 2
	db.mu.Unlock()
	if progressed, err := db.compactOnce(false); err != nil || !progressed {
		t.Fatalf("compactOnce = %v, %v", progressed, err)
	}
	if n := db.NumTables(); n != 2 {
		t.Fatalf("window merge left %d tables, want 2", n)
	}
	if got := takeAsked(); len(got) != 0 {
		t.Fatalf("a window merge above the oldest run asked Drop about ticks %v", got)
	}
	if v, err := get(db, 2, 42); err != nil || v == nil {
		t.Fatalf("a window merge above the oldest run dropped (2, 42): %v, %v", v, err)
	}
	// A full compaction writes the oldest run: every record is asked about,
	// and oid 42 leaves every tick.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := takeAsked(); !slices.Equal(got, []string{"1", "2", "3"}) {
		t.Fatalf("a full compaction asked Drop about ticks %v, want [1 2 3]", got)
	}
	for tick := int32(1); tick <= 3; tick++ {
		if v, err := get(db, tick, 42); err != nil || v != nil {
			t.Fatalf("(%d, 42) survived the compaction into the oldest run: %v, %v", tick, v, err)
		}
		if v, err := get(db, tick, 41); err != nil || v == nil {
			t.Fatalf("(%d, 41) was dropped: %v, %v", tick, v, err)
		}
	}
	if db.tables[0].count != 2000+100+100-3 {
		t.Fatalf("the compacted run holds %d records, want %d", db.tables[0].count, 2000+100+100-3)
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
