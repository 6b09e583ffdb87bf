package cmc

import (
	"runtime"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

func mineDS(t *testing.T, ds *model.Dataset, m, k int) []model.Convoy {
	t.Helper()
	out, err := Mine(storage.NewMemStore(ds), m, k, minetest.Eps)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return out
}

func TestSingleStableConvoy(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	got := mineDS(t, ds, 3, 5)
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTooShortConvoyDropped(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 3, Groups: [][]int32{{1, 2, 3}}},
	})
	if got := mineDS(t, ds, 3, 5); len(got) != 0 {
		t.Fatalf("short convoy should be dropped, got %v", got)
	}
}

func TestTooSmallGroupDropped(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2}}},
	})
	if got := mineDS(t, ds, 3, 5); len(got) != 0 {
		t.Fatalf("undersized group should be dropped, got %v", got)
	}
}

func TestShrinkingConvoyEmitsBoth(t *testing.T) {
	// abc together [0,9]; d joins them only [0,5].
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 5, Groups: [][]int32{{1, 2, 3, 4}}},
		{Start: 6, End: 9, Groups: [][]int32{{1, 2, 3}, {4}}},
	})
	got := mineDS(t, ds, 3, 3)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 0, 5),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLateJoinerNotExtendedBackwards(t *testing.T) {
	// abc from 0; d joins at 4; convoy abcd must start at 4, not 0.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 3, Groups: [][]int32{{1, 2, 3}, {4}}},
		{Start: 4, End: 9, Groups: [][]int32{{1, 2, 3, 4}}},
	})
	got := mineDS(t, ds, 3, 3)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 4, 9),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestGapKillsConvoy(t *testing.T) {
	// Group together [0,4] and [6,10] but apart at 5.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 4, Groups: [][]int32{{1, 2, 3}}},
		{Start: 5, End: 5, Groups: [][]int32{{1}, {2}, {3}}},
		{Start: 6, End: 10, Groups: [][]int32{{1, 2, 3}}},
	})
	got := mineDS(t, ds, 3, 5)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 4),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 6, 10),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDisjointConvoysCoexist(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}, {10, 11, 12}}},
	})
	got := mineDS(t, ds, 3, 5)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(10, 11, 12), 0, 9),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSplitConvoy(t *testing.T) {
	// abcdef together [0,4]; then split into abc / def [5,9].
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 4, Groups: [][]int32{{1, 2, 3, 4, 5, 6}}},
		{Start: 5, End: 9, Groups: [][]int32{{1, 2, 3}, {4, 5, 6}}},
	})
	got := mineDS(t, ds, 3, 3)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4, 5, 6), 0, 4),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(4, 5, 6), 0, 9),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestOutputsAreConvoysAndMaximal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ds := minetest.Random(seed, 12, 20)
		got := mineDS(t, ds, 3, 4)
		for _, c := range got {
			if !minetest.IsConvoy(ds, c, 3, minetest.Eps) {
				t.Fatalf("seed %d: output %v is not a convoy", seed, c)
			}
			if c.Len() < 4 {
				t.Fatalf("seed %d: output %v shorter than k", seed, c)
			}
		}
		if i, j := minetest.AssertMaximal(got); i >= 0 {
			t.Fatalf("seed %d: %v ⊑ %v", seed, got[i], got[j])
		}
	}
}

// Completeness against brute force: every (objs ⊆ cluster chain, interval)
// combination of length ≥ k must be covered by some output.
func TestCompletenessBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ds := minetest.Random(seed, 8, 12)
		m, k := 2, 3
		got := mineDS(t, ds, m, k)
		var cover model.Cover
		for _, c := range got {
			cover.Add(c)
		}
		// Enumerate every interval and every pair of objects; if the pair is
		// co-clustered throughout, some output must cover it.
		objs := ds.Objects()
		ts, te := ds.TimeRange()
		for s := ts; s <= te; s++ {
			for e := s + int32(k) - 1; e <= te; e++ {
				for i := 0; i < len(objs); i++ {
					for j := i + 1; j < len(objs); j++ {
						pair := model.NewConvoy(model.NewObjSet(objs[i], objs[j]), s, e)
						if minetest.IsConvoy(ds, pair, m, minetest.Eps) && !cover.Covers(pair) {
							t.Fatalf("seed %d: pair convoy %v not covered by %v", seed, pair, got)
						}
					}
				}
			}
		}
	}
}

func TestMinerGapFlush(t *testing.T) {
	mn := NewMiner(2, 2)
	mn.Step(0, []model.ObjSet{model.NewObjSet(1, 2)})
	mn.Step(1, []model.ObjSet{model.NewObjSet(1, 2)})
	// Gap: t jumps to 5.
	mn.Step(5, []model.ObjSet{model.NewObjSet(1, 2)})
	mn.Step(6, []model.ObjSet{model.NewObjSet(1, 2)})
	got := mn.Finish()
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2), 0, 1),
		model.NewConvoy(model.NewObjSet(1, 2), 5, 6),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMinerKeepPredicate(t *testing.T) {
	// Keep everything, even length-1 convoys.
	mn := NewMinerKeep(2, func(model.Convoy) bool { return true })
	mn.Step(0, []model.ObjSet{model.NewObjSet(1, 2)})
	mn.Step(1, nil)
	got := mn.Finish()
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2), 0, 0)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	got := mineDS(t, model.NewDataset(nil), 3, 3)
	if len(got) != 0 {
		t.Fatalf("empty dataset should yield nothing, got %v", got)
	}
}

// TestClosedListRetainedBytes measures what Miner.out — the result list
// Finish needs, which grows with every convoy a stream closes — keeps per
// convoy on the moving city feed (≈ 1 600 objects per tick), the figure
// docs/ARCHITECTURE.md quotes for a long-lived convoyd feed. It is the heap
// the list pins minus the heap once the list is dropped, over the convoys
// it holds; every drained convoy has already been handed to its consumer.
func TestClosedListRetainedBytes(t *testing.T) {
	ticks := minetest.City(1, 650, 14)
	mn := NewMiner(minetest.CityM, minetest.CityK)
	for tt, snap := range ticks {
		mn.Step(int32(tt), dbscan.Cluster(snap, minetest.CityEps, minetest.CityM))
		mn.Drain()
	}
	n, members := len(mn.out), 0
	if n == 0 {
		t.Fatal("the city feed closed no convoy")
	}
	for _, c := range mn.out {
		members += len(c.Objs)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	mn.out = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(mn)
	per := (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / float64(n)
	t.Logf("%d closed convoys of %.1f members on average retain %.0f bytes each", n, float64(members)/float64(n), per)
	// A closed convoy costs its 32-byte header and 4 bytes per member, plus
	// the list's growth slack. Several times that means a convoy pins memory
	// it does not own, such as its tick's whole cluster buffer.
	if limit := 2 * (32 + 4*float64(members)/float64(n)); per > limit {
		t.Fatalf("%.0f bytes retained per closed convoy, want ≤ %.0f", per, limit)
	}
}
