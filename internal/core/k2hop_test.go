package core

import (
	"fmt"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

func mine(t *testing.T, ds *model.Dataset, m, k int) ([]model.Convoy, *Report) {
	t.Helper()
	out, rep, err := Mine(storage.NewMemStore(ds), Config{M: m, K: k, Eps: minetest.Eps})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return out, rep
}

func TestSingleStableConvoy(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}}},
	})
	got, rep := mine(t, ds, 3, 8)
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 19)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if rep.BenchmarkPoints != 5 { // ticks 0,4,8,12,16 with hop 4
		t.Fatalf("benchmark points = %d, want 5", rep.BenchmarkPoints)
	}
	if rep.Convoys != 1 || rep.Spanning == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestConvoyShorterThanKDropped(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 5, Groups: [][]int32{{1, 2, 3}}},
		{Start: 6, End: 19, Groups: [][]int32{{1}, {2}, {3}}},
	})
	got, _ := mine(t, ds, 3, 8)
	if len(got) != 0 {
		t.Fatalf("short convoy should be dropped, got %v", got)
	}
}

func TestConvoyNotAlignedToBenchmarks(t *testing.T) {
	// Convoy [3,14] with k=8 (hop 4, benchmarks 0,4,8,12,16): spans
	// benchmarks 4,8,12 and extends into both neighbouring windows.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 2, Groups: [][]int32{{1}, {2}, {3}}},
		{Start: 3, End: 14, Groups: [][]int32{{1, 2, 3}}},
		{Start: 15, End: 19, Groups: [][]int32{{1}, {2}, {3}}},
	})
	got, _ := mine(t, ds, 3, 8)
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 3, 14)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCoincidentalTogethernessPruned(t *testing.T) {
	// Objects together exactly at the benchmark points (0,4,8) but apart at
	// every interior timestamp: HWMT must prune them, finding no convoy.
	groups := map[int32][][]int32{}
	for tt := int32(0); tt <= 11; tt++ {
		if tt%4 == 0 {
			groups[tt] = [][]int32{{1, 2, 3}}
		} else {
			groups[tt] = [][]int32{{1}, {2}, {3}}
		}
	}
	ds := minetest.Build(groups)
	got, rep := mine(t, ds, 3, 8)
	if len(got) != 0 {
		t.Fatalf("coincidental togetherness should be pruned, got %v", got)
	}
	if rep.Spanning != 0 {
		t.Fatalf("no spanning convoys expected, got %d", rep.Spanning)
	}
}

func TestBridgeObjectValidation(t *testing.T) {
	// Objects 1,2,3 together [0,19] but at t=10 connected only through
	// bridge object 9: FC convoys must split at t=10.
	groups := map[int32][][]int32{}
	for tt := int32(0); tt <= 19; tt++ {
		if tt == 10 {
			groups[tt] = [][]int32{{1, 2, 9, 3}}
		} else {
			groups[tt] = [][]int32{{1, 2, 3}, {9}}
		}
	}
	ds := minetest.Build(groups)
	got, _ := mine(t, ds, 3, 8)
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 11, 19),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestShrinkAndSplitConvoys(t *testing.T) {
	// abcd [0,11]; then abc [12,19]; separately ef join cd [8,19].
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 11, Groups: [][]int32{{1, 2, 3, 4}, {5, 6}}},
		{Start: 12, End: 19, Groups: [][]int32{{1, 2, 3}, {4, 5, 6}}},
	})
	got, _ := mine(t, ds, 3, 6)
	want := vcoda.Reference(ds, 3, 6, minetest.Eps)
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestKEdgeCases(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	for _, k := range []int{2, 3, 4, 5, 9, 10} {
		got, _ := mine(t, ds, 3, k)
		want := vcoda.Reference(ds, 3, k, minetest.Eps)
		if !model.ConvoysEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
	// k larger than the dataset: nothing.
	if got, _ := mine(t, ds, 3, 11); len(got) != 0 {
		t.Fatalf("k>|T| should give nothing, got %v", got)
	}
}

func TestKTooSmallRejected(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{{Start: 0, End: 3, Groups: [][]int32{{1, 2}}}})
	if _, _, err := Mine(storage.NewMemStore(ds), Config{M: 2, K: 1, Eps: minetest.Eps}); err == nil {
		t.Fatalf("K=1 should be rejected")
	}
	if _, _, err := Mine(storage.NewMemStore(ds), Config{M: 0, K: 4, Eps: minetest.Eps}); err == nil {
		t.Fatalf("M=0 should be rejected")
	}
}

func TestEmptyDataset(t *testing.T) {
	got, rep := mine(t, model.NewDataset(nil), 3, 4)
	if len(got) != 0 || rep.Convoys != 0 {
		t.Fatalf("empty dataset should yield nothing")
	}
}

// The central correctness property: k/2-hop produces exactly the same
// maximal FC convoys as the reference miner, across random datasets and
// parameter combinations.
func TestMatchesReferenceQuick(t *testing.T) {
	trials := 0
	for seed := int64(0); seed < 25; seed++ {
		for _, mk := range []struct{ m, k int }{{2, 3}, {2, 5}, {3, 4}, {3, 8}, {4, 6}} {
			ds := minetest.Random(seed, 10, 18)
			want := vcoda.Reference(ds, mk.m, mk.k, minetest.Eps)
			got, _, err := Mine(storage.NewMemStore(ds), Config{M: mk.m, K: mk.k, Eps: minetest.Eps})
			if err != nil {
				t.Fatalf("seed %d m=%d k=%d: %v", seed, mk.m, mk.k, err)
			}
			if !model.ConvoysEqual(got, want) {
				t.Fatalf("seed %d m=%d k=%d:\n got %v\nwant %v", seed, mk.m, mk.k, got, want)
			}
			trials++
		}
	}
	if trials != 125 {
		t.Fatalf("expected 125 trials, ran %d", trials)
	}
}

func TestOutputsAreFCAndMaximal(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		ds := minetest.Random(seed, 14, 24)
		got, _ := mine(t, ds, 3, 5)
		for _, c := range got {
			if !minetest.IsFCConvoy(ds, c, 3, minetest.Eps) {
				t.Fatalf("seed %d: %v not FC", seed, c)
			}
		}
		if i, j := minetest.AssertMaximal(got); i >= 0 {
			t.Fatalf("seed %d: %v ⊑ %v", seed, got[i], got[j])
		}
	}
}

func TestPruningCountsReported(t *testing.T) {
	// A dataset with lots of noise and one convoy: the points processed
	// must be far fewer than the total (the paper's pruning claim).
	groups := map[int32][][]int32{}
	for tt := int32(0); tt < 60; tt++ {
		gs := [][]int32{{1, 2, 3}}
		// 40 noise objects, each in its own far-away group.
		for o := int32(10); o < 50; o++ {
			gs = append(gs, []int32{o})
		}
		groups[tt] = gs
	}
	ds := minetest.Build(groups)
	ms := storage.NewMemStore(ds)
	_, rep, err := Mine(ms, Config{M: 3, K: 20, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(ds.NumPoints())
	if rep.PointsProcessed >= total {
		t.Fatalf("no pruning: processed %d of %d", rep.PointsProcessed, total)
	}
	// With hop=10 only 6 of 60 ticks are scanned in full; the rest of the
	// reads are convoy-member fetches. Expect well under half the data.
	if rep.PointsProcessed > total/2 {
		t.Fatalf("weak pruning: processed %d of %d", rep.PointsProcessed, total)
	}
}

func TestBisectOrder(t *testing.T) {
	got := bisectOrder(1, 7)
	want := []int32{4, 2, 6, 1, 3, 5, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bisectOrder(1,7) = %v, want %v", got, want)
	}
	if bisectOrder(5, 4) != nil {
		t.Fatalf("empty interior should give nil")
	}
	if got := bisectOrder(3, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("singleton = %v", got)
	}
	// Every timestamp appears exactly once.
	got = bisectOrder(0, 100)
	seen := map[int32]bool{}
	for _, x := range got {
		if seen[x] {
			t.Fatalf("duplicate %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 101 {
		t.Fatalf("covered %d of 101", len(seen))
	}
}

func TestExtensionCoversShrunkenConvoys(t *testing.T) {
	// ab is together over the whole run [0,15], and c joins it only over
	// [4,9]. Both abc [4,9] and its shrunken subset ab [0,15] are maximal:
	// abc must close at both of its ends while ab extends past them on
	// both sides. The result must equal the reference's.
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 3, Groups: [][]int32{{1, 2}, {3}}},
		{Start: 4, End: 9, Groups: [][]int32{{1, 2, 3}}},
		{Start: 10, End: 15, Groups: [][]int32{{1, 2}, {3}}},
	})
	got, _ := mine(t, ds, 2, 4)
	want := vcoda.Reference(ds, 2, 4, minetest.Eps)
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLargerRandomAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(200); seed < 206; seed++ {
		ds := minetest.Random(seed, 20, 40)
		for _, k := range []int{4, 7, 12} {
			want := vcoda.Reference(ds, 3, k, minetest.Eps)
			got, _, err := Mine(storage.NewMemStore(ds), Config{M: 3, K: k, Eps: minetest.Eps})
			if err != nil {
				t.Fatal(err)
			}
			if !model.ConvoysEqual(got, want) {
				t.Fatalf("seed %d k=%d:\n got %v\nwant %v", seed, k, got, want)
			}
		}
	}
}
