package spare

import (
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mapreduce"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// Unit tests for the apriori star enumerator, independent of clustering.

func seqOf(n int, runs ...[2]int) *bitset.Bits {
	b := bitset.New(n)
	for _, r := range runs {
		b.SetRange(r[0], r[1])
	}
	return b
}

func TestEnumerateStarSimple(t *testing.T) {
	// Star of object 1 with neighbours 2 and 3; pairs (1,2) and (1,3)
	// co-clustered throughout [0,9].
	seq := map[int32]*bitset.Bits{
		2: seqOf(10, [2]int{0, 9}),
		3: seqOf(10, [2]int{0, 9}),
	}
	out := enumerateStar(1, []int32{2, 3}, seq, make([][]model.ObjSet, 10), 0, Config{M: 3, K: 5})
	want := model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)
	found := false
	for _, c := range out {
		if c.Equal(want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %v in %v", want, out)
	}
}

func TestEnumerateStarPrunesShortRuns(t *testing.T) {
	// (1,2) has a long run; (1,3) only short bursts: the triple's AND has
	// no ≥k run and must be pruned, the pair survives.
	seq := map[int32]*bitset.Bits{
		2: seqOf(12, [2]int{0, 11}),
		3: seqOf(12, [2]int{0, 1}, [2]int{5, 6}, [2]int{10, 11}),
	}
	out := enumerateStar(1, []int32{2, 3}, seq, make([][]model.ObjSet, 12), 0, Config{M: 2, K: 4})
	for _, c := range out {
		if c.Objs.Contains(3) {
			t.Fatalf("pruned group emitted: %v", c)
		}
	}
	want := model.NewConvoy(model.NewObjSet(1, 2), 0, 11)
	ok := false
	for _, c := range out {
		if c.Equal(want) {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("pair missing in %v", out)
	}
}

func TestEnumerateStarMultipleRuns(t *testing.T) {
	seq := map[int32]*bitset.Bits{
		2: seqOf(20, [2]int{0, 5}, [2]int{10, 17}),
	}
	out := enumerateStar(1, []int32{2}, seq, make([][]model.ObjSet, 20), 100, Config{M: 2, K: 4})
	if len(out) != 2 {
		t.Fatalf("want 2 run-convoys, got %v", out)
	}
	// Offsets apply: ts base is 100.
	if out[0].Start != 100 || out[0].End != 105 || out[1].Start != 110 || out[1].End != 117 {
		t.Fatalf("run offsets wrong: %v", out)
	}
}

func TestEnumerateStarRespectsM(t *testing.T) {
	seq := map[int32]*bitset.Bits{2: seqOf(10, [2]int{0, 9})}
	out := enumerateStar(1, []int32{2}, seq, make([][]model.ObjSet, 10), 0, Config{M: 3, K: 4})
	if len(out) != 0 {
		t.Fatalf("pairs must not satisfy m=3: %v", out)
	}
}

// At a tick whose clusters share a border point, pairwise co-clustering
// with the owner does not put a group inside one cluster. Here 1 is in
// {1,2,4,5} and {1,3,6,7} at tick 5: the pairs (1,2) and (1,3) hold
// throughout [0,9], but {1,2,3} is together only in [0,4] and [6,9], while
// {1,2} keeps the whole run.
func TestEnumerateStarCutsRunsAtSplitTicks(t *testing.T) {
	seq := map[int32]*bitset.Bits{
		2: seqOf(10, [2]int{0, 9}),
		3: seqOf(10, [2]int{0, 9}),
	}
	shared := make([][]model.ObjSet, 10)
	shared[5] = []model.ObjSet{model.NewObjSet(1, 2, 4, 5), model.NewObjSet(1, 3, 6, 7)}
	got := model.Maximal(enumerateStar(1, []int32{2, 3}, seq, shared, 0, Config{M: 2, K: 4}))
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2), 0, 9),
		model.NewConvoy(model.NewObjSet(1, 3), 0, 9),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 4),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 6, 9),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSparePropagatesFaults(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	fs := storetest.NewFaultStore(storage.NewMemStore(ds), 3)
	_, err := Mine(fs, Config{M: 3, K: 4, Eps: minetest.Eps, Cluster: mapreduce.Local(2)})
	if !errors.Is(err, storetest.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}
