package core

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// bruteForceFC returns the maximal FC convoys of ds straight from
// Definition 4: every object subset of size ≥ m over every interval of
// length ≥ k that minetest.IsFCConvoy accepts, reduced to the maximal ones.
// It shares no code with any miner; ds must be tiny.
func bruteForceFC(ds *model.Dataset, m, k int) []model.Convoy {
	objs := ds.Objects()
	ts, te := ds.TimeRange()
	var fc []model.Convoy
	for mask := 1; mask < 1<<len(objs); mask++ {
		var set model.ObjSet
		for i, o := range objs {
			if mask&(1<<i) != 0 {
				set = append(set, o)
			}
		}
		if len(set) < m {
			continue
		}
		for s := ts; s <= te; s++ {
			for e := s + int32(k) - 1; e <= te; e++ {
				if c := model.NewConvoy(set, s, e); minetest.IsFCConvoy(ds, c, m, minetest.Eps) {
					fc = append(fc, c)
				}
			}
		}
	}
	return model.MaximalConvoys(fc)
}

// vcoda.Reference, the oracle of the other suites, runs the same Validate as
// the miners it judges. Here all four are judged by enumeration instead.
func TestAllMinersMatchExhaustiveEnumeration(t *testing.T) {
	convoys := 0
	for seed := int64(0); seed < 24; seed++ {
		ds := minetest.Random(seed, 7, 8)
		for _, m := range []int{2, 3} {
			k := 2 + int(seed%3)
			want := bruteForceFC(ds, m, k)
			convoys += len(want)
			ms := storage.NewMemStore(ds)
			plain, _, err := vcoda.Mine(ms, m, k, minetest.Eps)
			if err != nil {
				t.Fatal(err)
			}
			star, _, err := vcoda.MineStar(ms, m, k, minetest.Eps)
			if err != nil {
				t.Fatal(err)
			}
			k2hop, _ := mine(t, ds, m, k)
			for _, got := range []struct {
				name string
				cs   []model.Convoy
			}{
				{"vcoda.Reference", vcoda.Reference(ds, m, k, minetest.Eps)},
				{"vcoda.Mine", plain},
				{"vcoda.MineStar", star},
				{"core.Mine", k2hop},
			} {
				if !model.ConvoysEqual(got.cs, want) {
					t.Errorf("seed %d m=%d k=%d: %s = %v, enumeration gives %v", seed, m, k, got.name, got.cs, want)
				}
			}
		}
	}
	if convoys < 48 {
		t.Fatalf("only %d convoys over all seeds: the datasets do not exercise the miners", convoys)
	}
}
