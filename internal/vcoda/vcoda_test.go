package vcoda

import (
	"fmt"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// Figure-2-style scenario: x,y,z travel together but at one timestamp they
// are only connected through a bridge object n that is not part of the
// group. The partially connected convoy spans the bridge tick; the FC
// convoy does not.
func bridgeScenario() *model.Dataset {
	groups := map[int32][][]int32{}
	for t := int32(0); t <= 9; t++ {
		if t == 5 {
			// x=1,y=2,z=3 with bridge n=9 inserted between y and z: the
			// chain is 1-2-9-3; removing 9 splits {1,2} from {3}.
			groups[t] = [][]int32{{1, 2, 9, 3}}
		} else {
			groups[t] = [][]int32{{1, 2, 3}, {9}}
		}
	}
	return minetest.Build(groups)
}

func TestBridgeObjectBreaksFC(t *testing.T) {
	ds := bridgeScenario()
	ms := storage.NewMemStore(ds)
	m, k := 3, 3

	fc, rep, err := MineStar(ms, m, k, minetest.Eps)
	if err != nil {
		t.Fatalf("MineStar: %v", err)
	}
	// The partially connected convoy ({1,2,3},[0,9]) exists, but FC convoys
	// must break at t=5 where connectivity needed object 9.
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 4),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 6, 9),
	}
	if !model.ConvoysEqual(fc, want) {
		t.Fatalf("FC convoys = %v, want %v", fc, want)
	}
	if rep.PreValidation == 0 || rep.Convoys != 2 {
		t.Fatalf("report wrong: %+v", rep)
	}
	for _, c := range fc {
		if !minetest.IsFCConvoy(ds, c, m, minetest.Eps) {
			t.Fatalf("output %v is not FC", c)
		}
	}
}

func TestVCoDAMatchesStar(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ds := minetest.Random(seed, 10, 15)
		ms := storage.NewMemStore(ds)
		star, _, err := MineStar(ms, 3, 4, minetest.Eps)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := Mine(ms, 3, 4, minetest.Eps)
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(star, plain) {
			t.Fatalf("seed %d: VCoDA %v != VCoDA* %v", seed, plain, star)
		}
	}
}

func TestOutputsAreMaximalFC(t *testing.T) {
	for seed := int64(20); seed < 40; seed++ {
		ds := minetest.Random(seed, 12, 18)
		out := Reference(ds, 3, 4, minetest.Eps)
		for _, c := range out {
			if !minetest.IsFCConvoy(ds, c, 3, minetest.Eps) {
				t.Fatalf("seed %d: %v not FC", seed, c)
			}
			if c.Len() < 4 || c.Size() < 3 {
				t.Fatalf("seed %d: %v violates m/k", seed, c)
			}
		}
		if i, j := minetest.AssertMaximal(out); i >= 0 {
			t.Fatalf("seed %d: %v ⊑ %v", seed, out[i], out[j])
		}
	}
}

// Completeness: every FC pair-convoy must be covered by some output.
func TestReferenceCompleteness(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ds := minetest.Random(seed, 8, 10)
		m, k := 2, 3
		out := Reference(ds, m, k, minetest.Eps)
		cover := model.NewConvoySet(out...)
		objs := ds.Objects()
		ts, te := ds.TimeRange()
		for s := ts; s <= te; s++ {
			for e := s + int32(k) - 1; e <= te; e++ {
				for i := 0; i < len(objs); i++ {
					for j := i + 1; j < len(objs); j++ {
						pair := model.NewConvoy(model.NewObjSet(objs[i], objs[j]), s, e)
						if minetest.IsFCConvoy(ds, pair, m, minetest.Eps) && !cover.Covers(pair) {
							t.Fatalf("seed %d: FC pair %v not covered by %v", seed, pair, out)
						}
					}
				}
			}
		}
	}
}

func TestValidateConfirmsTrueFC(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3}}},
	})
	v := model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)
	out, err := Validate(storage.NewMemStore(ds), []model.Convoy{v}, 3, 3, minetest.Eps, 1)
	if err != nil || len(out) != 1 || !out[0].Equal(v) {
		t.Fatalf("Validate = %v, %v", out, err)
	}
}

func TestValidateDropsTooSmall(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 9, Groups: [][]int32{{1, 2}}},
	})
	out, err := Validate(storage.NewMemStore(ds), []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2), 0, 9),
	}, 3, 3, minetest.Eps, 1)
	if err != nil || len(out) != 0 {
		t.Fatalf("undersized candidate should vanish, got %v, %v", out, err)
	}
}

// Validate reads DB[T]|O and nothing else: 1 and 3 are connected only through
// 2, which the candidate does not name, so they must not be found together.
func TestValidateReadsOnlyTheCandidatesRows(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 5, Groups: [][]int32{{1, 2, 3}}},
	})
	ms := storage.NewMemStore(ds)
	out, err := Validate(ms, []model.Convoy{model.NewConvoy(model.NewObjSet(1, 3), 1, 3)}, 2, 2, minetest.Eps, 1)
	if err != nil || len(out) != 0 {
		t.Fatalf("Validate = %v, %v", out, err)
	}
	if st := ms.Stats().Snapshot(); st.SnapshotScans != 0 || st.PointQueries != 6 || st.PointsRead != 6 {
		t.Fatalf("store reads = %+v, want 2 objects × 3 ticks by point query", st)
	}
}

// Candidates that fail: the sweep over a candidate's rows returns something
// smaller, which is validated in turn, from the store. swept lists every
// (sub-)candidate whose rows must be fetched, one Fetch per tick of its span:
// a candidate's whole-tick check and its sweep share one read per tick, and
// anything else the recursion meets is a repeat or already covered. Every
// case runs with one worker and with four.
func TestValidateFailingCandidates(t *testing.T) {
	conv := func(start, end int32, ids ...int32) model.Convoy {
		return model.NewConvoy(model.NewObjSet(ids...), start, end)
	}
	cases := []struct {
		name  string
		ds    *model.Dataset
		m, k  int
		cands []model.Convoy
		want  []model.Convoy
		swept []model.Convoy
	}{{
		name:  "bridge object",
		ds:    bridgeScenario(),
		m:     3,
		k:     3,
		cands: []model.Convoy{conv(0, 9, 1, 2, 3)},
		want:  []model.Convoy{conv(0, 4, 1, 2, 3), conv(6, 9, 1, 2, 3)},
		swept: []model.Convoy{conv(0, 9, 1, 2, 3), conv(0, 4, 1, 2, 3), conv(6, 9, 1, 2, 3)},
	}, {
		// 1-2-9-3-4 throughout: the candidate is two FC pairs joined by 9.
		name: "partially connected chain",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 5, Groups: [][]int32{{1, 2, 9, 3, 4}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 5, 1, 2, 3, 4)},
		want:  []model.Convoy{conv(0, 5, 1, 2), conv(0, 5, 3, 4)},
		swept: []model.Convoy{conv(0, 5, 1, 2, 3, 4), conv(0, 5, 1, 2), conv(0, 5, 3, 4)},
	}, {
		name: "splits mid-span",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 3, Groups: [][]int32{{1, 2, 3, 4}}},
			{Start: 4, End: 7, Groups: [][]int32{{1, 2, 9, 3, 4}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 7, 1, 2, 3, 4)},
		want:  []model.Convoy{conv(0, 3, 1, 2, 3, 4), conv(0, 7, 1, 2), conv(0, 7, 3, 4)},
		swept: []model.Convoy{conv(0, 7, 1, 2, 3, 4), conv(0, 3, 1, 2, 3, 4), conv(0, 7, 1, 2), conv(0, 7, 3, 4)},
	}, {
		name: "shrinks then re-grows",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 2, Groups: [][]int32{{1, 2, 3}}},
			{Start: 3, End: 5, Groups: [][]int32{{1, 2, 9, 3}}},
			{Start: 6, End: 8, Groups: [][]int32{{1, 2, 3}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 8, 1, 2, 3)},
		want:  []model.Convoy{conv(0, 2, 1, 2, 3), conv(0, 8, 1, 2), conv(6, 8, 1, 2, 3)},
		swept: []model.Convoy{conv(0, 8, 1, 2, 3), conv(0, 2, 1, 2, 3), conv(0, 8, 1, 2), conv(6, 8, 1, 2, 3)},
	}, {
		// Three levels: restricted to the candidate, 4 drops out of [5,9];
		// restricted to what is left, 3 drops out of [0,4], where it held on
		// through 4.
		name: "fails twice",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 4, Groups: [][]int32{{1, 2, 4, 3}}},
			{Start: 5, End: 9, Groups: [][]int32{{1, 2, 3, 9, 4}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 9, 1, 2, 3, 4)},
		want:  []model.Convoy{conv(0, 4, 1, 2, 3, 4), conv(0, 9, 1, 2), conv(5, 9, 1, 2, 3)},
		swept: []model.Convoy{conv(0, 9, 1, 2, 3, 4), conv(0, 9, 1, 2, 3), conv(5, 9, 1, 2, 3), conv(0, 9, 1, 2), conv(0, 4, 1, 2, 3, 4)},
	}, {
		// 1-2-9-3 at tick 0 only: restricted to the candidate, 1 and 2 are
		// too few to cluster there, so the sweep starts from nothing.
		name: "fails at its first tick",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 0, Groups: [][]int32{{1, 2, 9, 3}}},
			{Start: 1, End: 5, Groups: [][]int32{{1, 2, 3}, {9}}},
		}),
		m:     3,
		k:     3,
		cands: []model.Convoy{conv(0, 5, 1, 2, 3)},
		want:  []model.Convoy{conv(1, 5, 1, 2, 3)},
		swept: []model.Convoy{conv(0, 5, 1, 2, 3), conv(1, 5, 1, 2, 3)},
	}, {
		// 1-2-9-3 at tick 5 only: the check passes every tick but the last,
		// where {1,2} carries on and 3 drops out.
		name: "fails only at its last tick",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 4, Groups: [][]int32{{1, 2, 3}, {9}}},
			{Start: 5, End: 5, Groups: [][]int32{{1, 2, 9, 3}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 5, 1, 2, 3)},
		want:  []model.Convoy{conv(0, 4, 1, 2, 3), conv(0, 5, 1, 2)},
		swept: []model.Convoy{conv(0, 5, 1, 2, 3), conv(0, 4, 1, 2, 3), conv(0, 5, 1, 2)},
	}, {
		// 1-2-3-4 throughout: {1,2,3} is FC, {1,2,4} is not, and what it
		// shrinks to, {1,2}, is covered by the first candidate's result, so
		// its rows are never read.
		name: "an earlier candidate covers a sub-candidate",
		ds: minetest.BuildRanges([]minetest.Range{
			{Start: 0, End: 9, Groups: [][]int32{{1, 2, 3, 4}}},
		}),
		m:     2,
		k:     3,
		cands: []model.Convoy{conv(0, 9, 1, 2, 3), conv(0, 9, 1, 2, 4)},
		want:  []model.Convoy{conv(0, 9, 1, 2, 3)},
		swept: []model.Convoy{conv(0, 9, 1, 2, 3), conv(0, 9, 1, 2, 4)},
	}}
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			name := fmt.Sprintf("%s, workers=%d", tc.name, workers)
			fs := storetest.NewFaultStore(storage.NewMemStore(tc.ds), 1<<40)
			got, err := Validate(fs, tc.cands, tc.m, tc.k, minetest.Eps, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !model.ConvoysEqual(got, tc.want) {
				t.Errorf("%s: Validate = %v, want %v", name, got, tc.want)
			}
			fetches := int64(0)
			for _, v := range tc.swept {
				fetches += int64(v.Len())
			}
			if fs.Ops() != fetches {
				t.Errorf("%s: %d fetches, want %d (one per tick of %v)", name, fs.Ops(), fetches, tc.swept)
			}
			for _, c := range got {
				if !minetest.IsFCConvoy(tc.ds, c, tc.m, minetest.Eps) {
					t.Errorf("%s: output %v is not FC", name, c)
				}
			}
		}
	}
}

// Paper Figure 2: ({a,b,c},[1,4]) is a convoy but not FC because at
// timestamp 4 the objects need outside help; ({a,b,c},[1,3]) is FC.
func TestPaperFigure2ABC(t *testing.T) {
	a, b, c, helper := int32(1), int32(2), int32(3), int32(9)
	groups := map[int32][][]int32{
		1: {{a, b, c}},
		2: {{a, b, c}},
		3: {{a, b, c}},
		4: {{a, helper, b, c}}, // helper bridges a to b,c... order: a-9-b-c chain
	}
	// At t=4 chain a-9-b-c: a↔b only via 9. So abc is a convoy (all in one
	// cluster) but not FC at 4.
	ds := minetest.Build(groups)
	out := Reference(ds, 3, 3, minetest.Eps)
	want := []model.Convoy{model.NewConvoy(model.NewObjSet(a, b, c), 1, 3)}
	if !model.ConvoysEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}
