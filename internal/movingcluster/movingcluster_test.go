package movingcluster

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

func TestJaccard(t *testing.T) {
	a := model.NewObjSet(1, 2, 3)
	b := model.NewObjSet(2, 3, 4)
	if got := Jaccard(a, b); got != 0.5 {
		t.Fatalf("Jaccard = %f, want 0.5", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard = %f", got)
	}
	if got := Jaccard(nil, nil); got != 0 {
		t.Fatalf("empty Jaccard = %f", got)
	}
	if got := Jaccard(a, model.NewObjSet(9)); got != 0 {
		t.Fatalf("disjoint Jaccard = %f", got)
	}
}

func TestStableClusterIsMovingCluster(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: 0.5, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("want 1 moving cluster, got %v", out)
	}
	mc := out[0]
	if mc.Start != 0 || mc.End() != 9 || mc.Len() != 10 {
		t.Fatalf("span wrong: %+v", mc)
	}
	for _, c := range mc.Clusters {
		if !c.Equal(model.NewObjSet(1, 2, 3)) {
			t.Fatalf("cluster drifted: %v", c)
		}
	}
}

func TestMembershipChurnAllowed(t *testing.T) {
	// The cluster gradually swaps members: {1,2,3} → {2,3,4} → {3,4,5}.
	// Jaccard between consecutive stages is 2/4 = 0.5; a convoy miner would
	// find nothing of length 9 here, a moving-cluster miner must.
	groups := map[int32][][]int32{}
	stages := [][]int32{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	for t := int32(0); t < 9; t++ {
		groups[t] = [][]int32{stages[t/3]}
	}
	ds := minetest.Build(groups)
	out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: 0.5, K: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Len() != 9 {
		t.Fatalf("churning cluster should survive: %v", out)
	}
}

func TestThetaBreaksChains(t *testing.T) {
	// Abrupt full swap {1,2,3} → {4,5,6}: overlap 0 < θ, chain breaks.
	groups := map[int32][][]int32{}
	for t := int32(0); t < 10; t++ {
		if t < 5 {
			groups[t] = [][]int32{{1, 2, 3}}
		} else {
			groups[t] = [][]int32{{4, 5, 6}}
		}
	}
	ds := minetest.Build(groups)
	// Theta 0 is outside (0, 1]; even so, clusters sharing no object do not
	// chain: matching only ever scores pairs that intersect.
	for _, theta := range []float64{0.5, 0} {
		out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: theta, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatalf("theta %g: want 2 chains, got %v", theta, out)
		}
		for _, mc := range out {
			if mc.Len() != 5 {
				t.Fatalf("theta %g: chain length = %d, want 5", theta, mc.Len())
			}
		}
	}
}

func TestShortChainsDropped(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 2, Groups: [][]int32{{1, 2, 3}}},
	})
	out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: 0.5, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("short chain should be dropped: %v", out)
	}
}

func TestParallelChains(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 7, Groups: [][]int32{{1, 2, 3}, {10, 11, 12}}},
	})
	out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: 0.5, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want 2 parallel chains, got %v", out)
	}
}

func TestEmptyDataset(t *testing.T) {
	out, err := Mine(storage.NewMemStore(model.NewDataset(nil)), Config{M: 2, Eps: 1, Theta: 0.5, K: 2})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: %v %v", out, err)
	}
}

func TestBestOverlapWins(t *testing.T) {
	// At the branch point, the chain must follow the cluster with the
	// larger overlap: {1,2,3,4} splits into {1,2,3} and {4}∪{5,6} — the
	// trio continues the chain.
	groups := map[int32][][]int32{
		0: {{1, 2, 3, 4}},
		1: {{1, 2, 3, 4}},
		2: {{1, 2, 3}, {4, 5, 6}},
		3: {{1, 2, 3}, {4, 5, 6}},
	}
	ds := minetest.Build(groups)
	out, err := Mine(storage.NewMemStore(ds), Config{M: 3, Eps: minetest.Eps, Theta: 0.4, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("want 1 chain of length 4, got %v", out)
	}
	last := out[0].Clusters[3]
	if !last.Equal(model.NewObjSet(1, 2, 3)) {
		t.Fatalf("chain followed the wrong branch: %v", last)
	}
}
