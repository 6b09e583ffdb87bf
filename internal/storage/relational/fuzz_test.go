package relational

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// FuzzTableRoundTrip builds a seeded random dataset into a table, reopens
// it with a fuzzer-chosen buffer pool and requires every Snapshot, random
// Fetch calls that mix present and absent objects, Count and TimeRange to
// equal the in-memory store's answers. Sizes reach three-level trees
// (more than perLeaf*perInner points).
func FuzzTableRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nObj, nTicks uint16, presence, cachePages uint8) {
		ds := storetest.RandomDataset(seed, int(nObj%300), int(nTicks%200), float64(presence)/255)
		path := filepath.Join(t.TempDir(), "fuzz.k2r")
		if err := WriteDataset(path, ds, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		s, err := Open(path, &Options{CachePages: int(cachePages)})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		mem := storage.NewMemStore(ds)

		if s.Count() != uint64(ds.NumPoints()) {
			t.Fatalf("Count = %d, want %d", s.Count(), ds.NumPoints())
		}
		ts, te := mem.TimeRange()
		if gts, gte := s.TimeRange(); gts != ts || gte != te {
			t.Fatalf("TimeRange = [%d,%d], want [%d,%d]", gts, gte, ts, te)
		}
		for tt := ts - 1; tt <= te+1; tt++ {
			want, _ := mem.Snapshot(tt)
			got, err := s.Snapshot(tt)
			if err != nil {
				t.Fatalf("Snapshot(%d): %v", tt, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Snapshot(%d) = %v, want %v", tt, got, want)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			tt := ts - 1 + int32(rng.Intn(int(te-ts)+3))
			ids := make([]int32, 1+rng.Intn(6))
			for j := range ids {
				ids[j] = int32(rng.Intn(int(nObj%300) + 5)) // some absent
			}
			oids := model.NewObjSet(ids...)
			want, _ := mem.Fetch(tt, oids)
			got, err := s.Fetch(tt, oids)
			if err != nil {
				t.Fatalf("Fetch(%d, %v): %v", tt, oids, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Fetch(%d, %v) = %v, want %v", tt, oids, got, want)
			}
		}
	})
}
