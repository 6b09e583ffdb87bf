package dcm

import (
	"errors"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/minetest"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func TestDCMPropagatesFaults(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}}},
	})
	for _, budget := range []int64{0, 5, 15} {
		fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
		_, err := Mine(fs, Config{
			M: 3, K: 4, Eps: minetest.Eps, Lambda: 5, Cluster: mapreduce.Local(3),
		})
		if !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
}
