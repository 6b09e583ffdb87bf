package spare

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/mapreduce"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

func mineSpare(t *testing.T, ds *model.Dataset, m, k int, cl mapreduce.Cluster) []model.Convoy {
	t.Helper()
	out, err := Mine(storage.NewMemStore(ds), Config{M: m, K: k, Eps: minetest.Eps, Cluster: cl})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return out
}

func TestSimpleConvoy(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	got := mineSpare(t, ds, 3, 5, mapreduce.Local(2))
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// SPARE mines the same pattern class as PCCD (maximal partially connected
// convoys), so on any dataset the two must agree exactly.
func TestMatchesPCCD(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		ds := minetest.Random(seed, 10, 16)
		for _, mk := range []struct{ m, k int }{{2, 3}, {3, 4}, {3, 6}} {
			want, err := cmc.Mine(storage.NewMemStore(ds), mk.m, mk.k, minetest.Eps)
			if err != nil {
				t.Fatal(err)
			}
			got := mineSpare(t, ds, mk.m, mk.k, mapreduce.Local(4))
			if !model.ConvoysEqual(got, want) {
				t.Fatalf("seed %d m=%d k=%d:\n got %v\nwant %v", seed, mk.m, mk.k, got, want)
			}
		}
	}
}

func TestClusterModesAgree(t *testing.T) {
	ds := minetest.Random(3, 12, 20)
	local := mineSpare(t, ds, 3, 4, mapreduce.Local(1))
	yarn := mineSpare(t, ds, 3, 4, mapreduce.Cluster{Nodes: 2, Cores: 2, Serialize: true})
	if !model.ConvoysEqual(local, yarn) {
		t.Fatalf("cluster modes disagree:\nlocal %v\nyarn %v", local, yarn)
	}
}

func TestApriorPruningCutsEnumeration(t *testing.T) {
	// Objects co-clustered for fewer than k ticks produce a star edge only
	// when a run ≥ k exists; here every pair is together 3 ticks, k=5.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 2, Groups: [][]int32{{1, 2, 3, 4, 5}}},
		{Start: 3, End: 9, Groups: [][]int32{{1}, {2}, {3}, {4}, {5}}},
	})
	got := mineSpare(t, ds, 2, 5, mapreduce.Local(1))
	if len(got) != 0 {
		t.Fatalf("expected nothing, got %v", got)
	}
}

func TestRunSplitConvoys(t *testing.T) {
	// The pair is together [0,4] and [8,14] with a gap: two convoys from the
	// same group, both ≥ k.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 4, Groups: [][]int32{{1, 2}}},
		{Start: 5, End: 7, Groups: [][]int32{{1}, {2}}},
		{Start: 8, End: 14, Groups: [][]int32{{1, 2}}},
	})
	got := mineSpare(t, ds, 2, 4, mapreduce.Local(1))
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2), 0, 4),
		model.NewConvoy(model.NewObjSet(1, 2), 8, 14),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	got := mineSpare(t, model.NewDataset(nil), 3, 4, mapreduce.Local(1))
	if len(got) != 0 {
		t.Fatalf("empty dataset: %v", got)
	}
}
