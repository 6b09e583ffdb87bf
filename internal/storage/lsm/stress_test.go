package lsm

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// Compaction across many runs with heavy overwrites must keep exactly the
// newest value per key and preserve global order.
func TestCompactionPreservesNewestAndOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 512, MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(13))
	want := map[[2]int32]float64{}
	for i := 0; i < 5000; i++ {
		k := [2]int32{int32(rng.Intn(20)), int32(rng.Intn(20))}
		x := rng.Float64()
		want[k] = x
		if err := put(db, model.Point{T: k[0], OID: k[1], X: x}); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumTables() < 5 {
		t.Fatalf("expected many runs before compaction, got %d", db.NumTables())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.NumTables() != 1 {
		t.Fatalf("compaction left %d tables", db.NumTables())
	}
	// The single run must be sorted, unique, and hold the newest values.
	tab := db.tables[0]
	it := tab.iterator(0, nil)
	var prev uint64
	n := 0
	for ; it.valid(); it.next() {
		if n > 0 && prev >= it.key() {
			t.Fatalf("compacted run out of order or duplicated")
		}
		tt, oid := wordTime(it.key()), wordOID(it.key())
		x, _ := storage.DecodeValue(it.value())
		if want[[2]int32{tt, oid}] != x {
			t.Fatalf("stale value for (%d,%d): %f", tt, oid, x)
		}
		prev = it.key()
		n++
	}
	if n != len(want) {
		t.Fatalf("compacted run has %d keys, want %d", n, len(want))
	}
}

// The block cache must return the same bytes as uncached reads and keep
// working past its eviction capacity.
func TestBlockCacheCoherent(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 200000 // ≫ the default BlockCacheBytes worth of records
	for i := 0; i < n; i++ {
		if err := put(db, model.Point{T: int32(i / 256), OID: int32(i % 256), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		i := rng.Intn(n)
		v, err := get(db, int32(i/256), int32(i%256))
		if err != nil {
			t.Fatal(err)
		}
		x, _ := storage.DecodeValue(v)
		if x != float64(i) {
			t.Fatalf("cache incoherent at %d: got %f", i, x)
		}
	}
}

// Snapshot scans across memtable + multiple runs must merge and dedupe.
func TestSnapshotAcrossMemtableAndRuns(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Run 1: oids 0..9 at t=5 with X=1.
	for oid := int32(0); oid < 10; oid++ {
		put(db, model.Point{T: 5, OID: oid, X: 1})
	}
	db.Flush()
	// Run 2: overwrite evens with X=2.
	for oid := int32(0); oid < 10; oid += 2 {
		put(db, model.Point{T: 5, OID: oid, X: 2})
	}
	db.Flush()
	// Memtable: add oid 10 and overwrite oid 1 with X=3.
	put(db, model.Point{T: 5, OID: 10, X: 3})
	put(db, model.Point{T: 5, OID: 1, X: 3})

	snap, err := db.Snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 11 {
		t.Fatalf("snapshot rows = %d, want 11: %v", len(snap), snap)
	}
	for _, r := range snap {
		var want float64
		switch {
		case r.OID == 10 || r.OID == 1:
			want = 3
		case r.OID%2 == 0:
			want = 2
		default:
			want = 1
		}
		if r.X != want {
			t.Fatalf("oid %d: X = %f, want %f", r.OID, r.X, want)
		}
	}
}

func TestReopenAfterManyCycles(t *testing.T) {
	dir := t.TempDir()
	want := map[int32]float64{}
	for cycle := 0; cycle < 5; cycle++ {
		db, err := Open(dir, &Options{MemtableBytes: 1024, MaxTables: 3})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := 0; i < 300; i++ {
			oid := int32(cycle*300 + i)
			want[oid] = float64(cycle)
			if err := put(db, model.Point{T: 1, OID: oid, X: float64(cycle)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, err := db.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(snap), len(want))
	}
	for _, r := range snap {
		if r.X != want[r.OID] {
			t.Fatalf("oid %d: X = %f, want %f", r.OID, r.X, want[r.OID])
		}
	}
}

func BenchmarkSnapshotScan(b *testing.B) {
	db := openBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Snapshot(int32(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}
