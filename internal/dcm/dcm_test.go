package dcm

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/mapreduce"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

func mineDCM(t *testing.T, ds *model.Dataset, m, k, lambda int) []model.Convoy {
	t.Helper()
	out, err := Mine(storage.NewMemStore(ds), Config{
		M: m, K: k, Eps: minetest.Eps, Lambda: lambda, Cluster: mapreduce.Local(2),
	})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return out
}

func TestSimpleConvoyAcrossPartitions(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}}},
	})
	got := mineDCM(t, ds, 3, 5, 4) // convoy spans 5 partitions
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 19)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestConvoyInsideOnePartition(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 3, End: 7, Groups: [][]int32{{1, 2, 3}}},
		{Start: 0, End: 2, Groups: [][]int32{{1}, {2}, {3}}},
		{Start: 8, End: 19, Groups: [][]int32{{1}, {2}, {3}}},
	})
	got := mineDCM(t, ds, 3, 4, 10)
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 3, 7)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// DCM mines the same pattern class as PCCD, so the two must agree exactly
// regardless of partition size. Merge keeps its final convoys unfiltered,
// so its output over the partitions must also be maximal as it stands,
// before the k filter could hide a short covered convoy.
func TestMatchesPCCD(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		ds := minetest.Random(seed, 10, 24)
		want, err := cmc.Mine(storage.NewMemStore(ds), 3, 4, minetest.Eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []int{4, 5, 9, 24, 100} {
			got := mineDCM(t, ds, 3, 4, lambda)
			if !model.ConvoysEqual(got, want) {
				t.Fatalf("seed %d λ=%d:\n got %v\nwant %v", seed, lambda, got, want)
			}
			parts, err := mineParts(storage.NewMemStore(ds), Config{M: 3, K: 4, Eps: minetest.Eps, Lambda: lambda})
			if err != nil {
				t.Fatal(err)
			}
			merged := Merge(parts, 3)
			if sm, sr := minetest.Canonical(merged), minetest.Canonical(minetest.ReferenceMaximal(merged)); sm != sr {
				t.Fatalf("seed %d λ=%d: Merge returned a covered convoy:\n%s\nmaximal:\n%s", seed, lambda, sm, sr)
			}
		}
	}
}

func TestShrinkingConvoyAcrossBoundary(t *testing.T) {
	// abcd [0,6]; abc continue [7,14]; boundary at 5 (λ=5).
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 6, Groups: [][]int32{{1, 2, 3, 4}}},
		{Start: 7, End: 14, Groups: [][]int32{{1, 2, 3}, {4}}},
	})
	got := mineDCM(t, ds, 3, 3, 5)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 0, 6),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 14),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeTable3Scenario(t *testing.T) {
	// Reproduce the paper's Table 3 merge walk-through: spanning convoy sets
	// of four adjacent hop-windows H0..H3 (Fig 5).
	b := func(i int32) int32 { return i } // benchmark index as timestamp
	h := func(objs []int32, s, e int32) model.Convoy {
		return model.NewConvoy(model.NewObjSet(objs...), b(s), b(e))
	}
	slices := [][]model.Convoy{
		{ // H0: [b0,b1]
			h([]int32{1, 2, 3, 4}, 0, 1), // {a,b,c,d}
			h([]int32{5, 6, 7, 8}, 0, 1), // {e,f,g,h}
			h([]int32{9, 10, 11}, 0, 1),  // {i,j,k}
		},
		{ // H1: [b1,b2]
			h([]int32{1, 2, 3, 4}, 1, 2),
			h([]int32{5, 6}, 1, 2),
			h([]int32{7, 8}, 1, 2),
		},
		{ // H2: [b2,b3]
			h([]int32{1, 2, 5, 6}, 2, 3),
			h([]int32{3, 4, 7, 8}, 2, 3),
			h([]int32{9, 10, 11}, 2, 3),
		},
		{ // H3: [b3,b4]
			h([]int32{1, 2}, 3, 4),
			h([]int32{3, 4}, 3, 4),
			h([]int32{5, 6}, 3, 4),
			h([]int32{7, 8}, 3, 4),
			h([]int32{3, 4, 7, 8}, 3, 4),
		},
	}
	got := Merge(slices, 2)
	want := []model.Convoy{
		h([]int32{1, 2, 3, 4}, 0, 2),
		h([]int32{5, 6, 7, 8}, 0, 1),
		h([]int32{9, 10, 11}, 0, 1),
		h([]int32{1, 2, 5, 6}, 2, 3),
		h([]int32{9, 10, 11}, 2, 3),
		h([]int32{1, 2}, 0, 4),
		h([]int32{3, 4}, 0, 4),
		h([]int32{5, 6}, 0, 4),
		h([]int32{7, 8}, 0, 4),
		h([]int32{3, 4, 7, 8}, 2, 4),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("merge:\n got %v\nwant %v", got, want)
	}
}

func TestMergeEmptySliceBreaksChains(t *testing.T) {
	c := model.NewConvoy(model.NewObjSet(1, 2), 0, 1)
	d := model.NewConvoy(model.NewObjSet(1, 2), 2, 3)
	got := Merge([][]model.Convoy{{c}, {}, {d}}, 2)
	want := []model.Convoy{c, d}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeMinSizeFilter(t *testing.T) {
	// Intersection {2,3} of size 2 < minSize 3 cannot merge.
	a := model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 1)
	b := model.NewConvoy(model.NewObjSet(2, 3, 4), 1, 2)
	got := Merge([][]model.Convoy{{a}, {b}}, 3)
	want := []model.Convoy{a, b}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLambdaSmallerThanKClamped(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	got := mineDCM(t, ds, 3, 6, 2) // λ < k gets clamped to k
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	got := mineDCM(t, model.NewDataset(nil), 3, 4, 5)
	if len(got) != 0 {
		t.Fatalf("empty dataset: %v", got)
	}
}
