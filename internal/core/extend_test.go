package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

func newTestMiner(ds *model.Dataset, m, k int) *miner {
	ts, te := ds.TimeRange()
	return &miner{
		store:   storage.NewMemStore(ds),
		ts:      ts,
		te:      te,
		grouper: ConvoyGrouper(m, minetest.Eps),
	}
}

func TestExtendRightGrowsToTrueEnd(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 13, Groups: [][]int32{{1, 2, 3}}},
		{Start: 14, End: 19, Groups: [][]int32{{1}, {2}, {3}}},
	})
	mi := newTestMiner(ds, 3, 8)
	// Spanning skeleton [4, 8]; the true convoy runs to 13.
	in := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 4, 8)}
	out, err := mi.extend(in, +1)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 4, 13)}
	if !model.ConvoysEqual(out, want) {
		t.Fatalf("extend right = %v, want %v", out, want)
	}
}

func TestExtendLeftGrowsToTrueStart(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 2, Groups: [][]int32{{1}, {2}, {3}}},
		{Start: 3, End: 19, Groups: [][]int32{{1, 2, 3}}},
	})
	mi := newTestMiner(ds, 3, 8)
	in := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 8, 19)}
	out, err := mi.extend(in, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 3, 19)}
	if !model.ConvoysEqual(out, want) {
		t.Fatalf("extend left = %v, want %v", out, want)
	}
}

func TestExtendSplitsIntoSubgroups(t *testing.T) {
	// abcd spanning [4,8]; beyond 8 only ab continue together (cd split off
	// far away but also together).
	groups := map[int32][][]int32{}
	for tt := int32(0); tt <= 8; tt++ {
		groups[tt] = [][]int32{{1, 2, 3, 4}}
	}
	for tt := int32(9); tt <= 15; tt++ {
		groups[tt] = [][]int32{{1, 2}, {3, 4}}
	}
	ds := minetest.Build(groups)
	mi := newTestMiner(ds, 2, 4)
	in := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 4, 8)}
	out, err := mi.extend(in, +1)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 4, 8),
		model.NewConvoy(model.NewObjSet(1, 2), 4, 15),
		model.NewConvoy(model.NewObjSet(3, 4), 4, 15),
	}
	if !model.ConvoysEqual(out, want) {
		t.Fatalf("extend split = %v, want %v", out, want)
	}
}

func TestExtendStopsAtDatasetBoundary(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	mi := newTestMiner(ds, 3, 4)
	in := []model.Convoy{model.NewConvoy(model.NewObjSet(1, 2, 3), 4, 8)}
	out, err := mi.extend(in, +1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].End != 9 {
		t.Fatalf("extend to boundary = %v", out)
	}
}

func TestIntersectClusterSets(t *testing.T) {
	a := []model.ObjSet{
		model.NewObjSet(1, 2, 3, 4),
		model.NewObjSet(5, 6, 7, 8),
		model.NewObjSet(9, 10, 11),
	}
	b := []model.ObjSet{
		model.NewObjSet(1, 2, 3),
		model.NewObjSet(4, 5),
		model.NewObjSet(6, 7, 8),
		model.NewObjSet(9, 10),
	}
	// The paper's §4.2 worked example with m=3.
	got := intersectClusterSets(a, b, 3)
	want := []model.ObjSet{model.NewObjSet(1, 2, 3), model.NewObjSet(6, 7, 8)}
	if len(got) != 2 || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("CC = %v, want %v", got, want)
	}
	// m=2 keeps the {9,10} intersection too; the singleton intersections
	// {4} and {5} stay dropped (the paper's example discards them).
	if got := intersectClusterSets(a, b, 2); len(got) != 3 {
		t.Fatalf("CC(m=2) = %v", got)
	}
}

// allPairsCandidates is the definition of phase 2 written out: every (left,
// right) pair in order, intersections of at least m objects, each distinct
// set once at its first position.
func allPairsCandidates(a, b []model.ObjSet, m int) []model.ObjSet {
	var out []model.ObjSet
	for _, x := range a {
		for _, y := range b {
			cc := x.Intersect(y)
			if len(cc) < m || slices.ContainsFunc(out, cc.Equal) {
				continue
			}
			out = append(out, cc)
		}
	}
	return out
}

// TestCandidateClusters pins the postings-driven sweep to the all-pairs
// definition as an exact sequence: same sets, same order, duplicates dropped
// at the same positions.
func TestCandidateClusters(t *testing.T) {
	set := model.NewObjSet
	cases := []struct {
		name string
		a, b []model.ObjSet
		m    int
	}{
		{"empty left", nil, []model.ObjSet{set(1, 2, 3)}, 1},
		{"empty right", []model.ObjSet{set(1, 2, 3)}, nil, 1},
		{"disjoint", []model.ObjSet{set(1, 2, 3)}, []model.ObjSet{set(4, 5, 6)}, 1},
		{"m boundary met", []model.ObjSet{set(1, 2, 3, 4)}, []model.ObjSet{set(2, 3, 4, 9)}, 3},
		{"m boundary missed", []model.ObjSet{set(1, 2, 3, 4)}, []model.ObjSet{set(2, 3, 4, 9)}, 4},
		{"right order, not hit order",
			// Object 1 sits in the later right cluster: the walk touches
			// cluster 1 before cluster 0 and must still emit 0 first.
			[]model.ObjSet{set(1, 2, 3, 4)},
			[]model.ObjSet{set(3, 4, 7), set(1, 2, 8)}, 2},
		{"same intersection from two pairs",
			// {2,3} arises from (a0,b0), again from (a0,b1) and from
			// (a1,b0): it is emitted once, before {5,6}.
			[]model.ObjSet{set(1, 2, 3, 5, 6), set(2, 3, 4)},
			[]model.ObjSet{set(2, 3, 7), set(2, 3, 8), set(5, 6, 9)}, 2},
		{"overlapping right-hand groups",
			// A disk cover shares objects between groups (flock.DiskGroups);
			// so may the left side.
			[]model.ObjSet{set(1, 2, 3, 4), set(3, 4, 5, 6)},
			[]model.ObjSet{set(1, 2, 3), set(2, 3, 4), set(3, 4, 5), set(4, 5, 6)}, 2},
	}
	check := func(name string, a, b []model.ObjSet, m int) {
		t.Helper()
		got, want := intersectClusterSets(a, b, m), allPairsCandidates(a, b, m)
		if !slices.EqualFunc(got, want, model.ObjSet.Equal) {
			t.Fatalf("%s (m=%d):\n a = %v\n b = %v\n got  %v\n want %v", name, m, a, b, got, want)
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.a, tc.b, tc.m)
	}

	// Seeded random clusterings: partitions (DBSCAN's shape) and overlapping
	// covers (disk groups' shape) of sparse ids, on either side.
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 5 + rng.Intn(60)
		clustering := func() []model.ObjSet {
			n := rng.Intn(8)
			overlap := rng.Intn(2) == 0
			ids := make([][]int32, n)
			for o := 0; o < universe && n > 0; o++ {
				if rng.Intn(4) == 0 {
					continue // in no cluster at this benchmark point
				}
				id := int32(o*7 - 50)
				i := rng.Intn(n)
				ids[i] = append(ids[i], id)
				if overlap && rng.Intn(3) == 0 {
					j := rng.Intn(n)
					ids[j] = append(ids[j], id)
				}
			}
			out := make([]model.ObjSet, n)
			for i := range ids {
				out[i] = set(ids[i]...)
			}
			return out
		}
		check(fmt.Sprintf("seed %d", seed), clustering(), clustering(), 1+rng.Intn(4))
	}
}
