// Package storetest provides a reusable conformance suite that every
// storage.Store implementation must pass: snapshots, fetches and time
// ranges must agree with the in-memory dataset the store was loaded from,
// across deterministic random workloads, read one call at a time and by
// concurrent readers.
package storetest

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// RandomDataset builds a deterministic random dataset with nObj objects over
// nTicks ticks; each object is present at each tick with probability
// presence.
func RandomDataset(seed int64, nObj, nTicks int, presence float64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var pts []model.Point
	for oid := 0; oid < nObj; oid++ {
		for t := 0; t < nTicks; t++ {
			if rng.Float64() > presence {
				continue
			}
			pts = append(pts, model.Point{
				OID: int32(oid),
				T:   int32(t),
				X:   rng.Float64() * 100,
				Y:   rng.Float64() * 100,
			})
		}
	}
	return model.NewDataset(pts)
}

// Run exercises store against the dataset it was loaded with.
func Run(t *testing.T, store storage.Store, ds *model.Dataset) {
	t.Helper()
	wantTs, wantTe := ds.TimeRange()
	gotTs, gotTe := store.TimeRange()
	if gotTs != wantTs || gotTe != wantTe {
		t.Fatalf("TimeRange = [%d,%d], want [%d,%d]", gotTs, gotTe, wantTs, wantTe)
	}

	// Every snapshot matches, including boundaries and out-of-range ticks.
	for tt := wantTs - 1; tt <= wantTe+1; tt++ {
		want := ds.Snapshot(tt)
		got, err := store.Snapshot(tt)
		if err != nil {
			t.Fatalf("Snapshot(%d): %v", tt, err)
		}
		if !objPosEqual(got, want) {
			t.Fatalf("Snapshot(%d) = %d rows, want %d rows\n got %v\nwant %v",
				tt, len(got), len(want), got, want)
		}
	}

	// Random fetches match, mixing present and absent objects and ticks.
	rng := rand.New(rand.NewSource(99))
	allObjs := ds.Objects()
	for trial := 0; trial < 50; trial++ {
		tt := wantTs + int32(rng.Intn(int(wantTe-wantTs)+3)) - 1
		var ids []int32
		for len(ids) < rng.Intn(8)+1 {
			if len(allObjs) > 0 && rng.Intn(3) > 0 {
				ids = append(ids, allObjs[rng.Intn(len(allObjs))])
			} else {
				ids = append(ids, int32(rng.Intn(1000)+5000)) // absent
			}
		}
		oids := model.NewObjSet(ids...)
		want := ds.Fetch(tt, oids)
		got, err := store.Fetch(tt, oids)
		if err != nil {
			t.Fatalf("Fetch(%d, %v): %v", tt, oids, err)
		}
		if !objPosEqual(got, want) {
			t.Fatalf("Fetch(%d, %v) = %v, want %v", tt, oids, got, want)
		}
	}

	// Empty fetch is a no-op.
	if rows, err := store.Fetch(wantTs, nil); err != nil || len(rows) != 0 {
		t.Fatalf("empty Fetch = %v, %v", rows, err)
	}

	if store.Stats() == nil {
		t.Fatalf("Stats must not be nil")
	}

	runConcurrent(t, store, ds)
}

// runConcurrent checks core.Config.Workers' contract that a store tolerates
// concurrent reads: 2×GOMAXPROCS goroutines each run every Snapshot and
// their own seeded random Fetch calls, and every answer must match ds.
// Under -race it also checks the store's locking.
func runConcurrent(t *testing.T, store storage.Store, ds *model.Dataset) {
	t.Helper()
	ts, te := ds.TimeRange()
	allObjs := ds.Objects()
	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Each reader starts at a different tick so the readers overlap
			// on different pages.
			n := int(te-ts) + 1
			for i := 0; i < n; i++ {
				tt := ts + int32((i+g)%n)
				got, err := store.Snapshot(tt)
				if err != nil {
					t.Errorf("reader %d: Snapshot(%d): %v", g, tt, err)
					return
				}
				if want := ds.Snapshot(tt); !objPosEqual(got, want) {
					t.Errorf("reader %d: Snapshot(%d) = %d rows, want %d", g, tt, len(got), len(want))
					return
				}
				ids := []int32{int32(rng.Intn(1000) + 5000)} // one absent
				for len(allObjs) > 0 && len(ids) < 4 {
					ids = append(ids, allObjs[rng.Intn(len(allObjs))])
				}
				oids := model.NewObjSet(ids...)
				rows, err := store.Fetch(tt, oids)
				if err != nil {
					t.Errorf("reader %d: Fetch(%d, %v): %v", g, tt, oids, err)
					return
				}
				if want := ds.Fetch(tt, oids); !objPosEqual(rows, want) {
					t.Errorf("reader %d: Fetch(%d, %v) = %v, want %v", g, tt, oids, rows, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func objPosEqual(a, b []model.ObjPos) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
