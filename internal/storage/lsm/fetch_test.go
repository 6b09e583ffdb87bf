package lsm

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

const (
	fetchTicks   = 10
	fetchObjects = 500 // ≈ 3 data blocks per tick
)

// buildFetchDB writes a seeded DB of three runs plus an unflushed memtable
// overlay: run 1 holds most (tick, oid) keys, run 2 overwrites some and
// tombstones others (shadowing run 1's values), run 3 overwrites again and
// resurrects some deleted keys, and the memtable both overwrites and
// deletes. A tiny block cache keeps the walk loading and evicting blocks.
func buildFetchDB(t *testing.T, seed int64) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), &Options{MaxTables: 100, BlockCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	put := func(tick, oid int32) {
		if err := put(db, model.Point{T: tick, OID: oid, X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	del := func(tick, oid int32) {
		if err := db.DeleteKV(storage.EncodeKey(tick, oid)); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 4; run++ {
		for tick := int32(0); tick < fetchTicks; tick++ {
			for oid := int32(0); oid < fetchObjects; oid++ {
				r := rng.Float64()
				switch {
				case run == 0 && r < 0.8:
					put(tick, oid)
				case run > 0 && r < 0.1:
					put(tick, oid)
				case run > 0 && r < 0.2:
					del(tick, oid)
				}
			}
		}
		if run < 3 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := db.NumTables(); n != 3 {
		t.Fatalf("want 3 runs, got %d", n)
	}
	return db
}

// randomFetchSet draws a sorted oid set that may cross block boundaries and
// includes absent oids and oids below the first or above the last object.
func randomFetchSet(rng *rand.Rand) model.ObjSet {
	ids := make([]int32, 1+rng.Intn(40))
	for i := range ids {
		ids[i] = int32(rng.Intn(fetchObjects+20)) - 10
	}
	return model.NewObjSet(ids...)
}

// fetchByGetKV is the reference: one GetKV per object.
func fetchByGetKV(t *testing.T, db *DB, tick int32, oids model.ObjSet) []model.ObjPos {
	t.Helper()
	var out []model.ObjPos
	for _, oid := range oids {
		v, err := db.GetKV(storage.EncodeKey(tick, oid))
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			x, y := storage.DecodeValue(v)
			out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		}
	}
	return out
}

func checkFetch(t *testing.T, db *DB, rng *rand.Rand) {
	t.Helper()
	tick := int32(rng.Intn(fetchTicks+2)) - 1
	oids := randomFetchSet(rng)
	got, err := db.Fetch(tick, oids)
	if err != nil {
		t.Fatal(err)
	}
	want := fetchByGetKV(t, db, tick, oids)
	if len(got) != len(want) {
		t.Fatalf("Fetch(%d, %v): %d rows, GetKV finds %d", tick, oids, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Fetch(%d, %v)[%d] = %+v, GetKV gives %+v", tick, oids, i, got[i], want[i])
		}
	}
}

// Fetch's forward walk must return exactly what one GetKV per object does,
// shadowing included: memtable over runs, newer runs over older, and a
// tombstone in a middle run over the oldest run's value.
func TestFetchMatchesGetKV(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db := buildFetchDB(t, seed)
		rng := rand.New(rand.NewSource(seed * 7))
		for i := 0; i < 400; i++ {
			checkFetch(t, db, rng)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A compaction that swaps every run for one merged table while Fetch calls
// keep coming must not change a single answer.
func TestFetchDuringCompaction(t *testing.T) {
	db := buildFetchDB(t, 11)
	defer db.Close()
	rng := rand.New(rand.NewSource(13))
	done := make(chan error, 1)
	for i := 0; i < 600; i++ {
		if i == 100 {
			go func() { done <- db.Compact() }()
		}
		checkFetch(t, db, rng)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := db.NumTables(); n != 1 {
		t.Fatalf("compaction left %d runs", n)
	}
	for i := 0; i < 200; i++ {
		checkFetch(t, db, rng)
	}
}

// BenchmarkFetch measures the point-read path k/2-hop leans on: sorted
// 4-object sets at random ticks against a reopened two-run DB.
func BenchmarkFetch(b *testing.B) {
	const ticks, objects = 200, 400
	dir := b.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		b.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		for tick := int32(0); tick < ticks; tick++ {
			for oid := int32(run); oid < objects; oid += 2 {
				if err := put(db, model.Point{T: tick, OID: oid, X: float64(oid), Y: float64(tick)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	if db, err = Open(dir, nil); err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	type query struct {
		t    int32
		oids model.ObjSet
	}
	qs := make([]query, 1024)
	for i := range qs {
		base := int32(rng.Intn(objects - 40))
		qs[i] = query{int32(rng.Intn(ticks)), model.NewObjSet(base, base+1+int32(rng.Intn(10)), base+12+int32(rng.Intn(10)), base+25+int32(rng.Intn(15)))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := db.Fetch(q.t, q.oids); err != nil {
			b.Fatal(err)
		}
	}
}
