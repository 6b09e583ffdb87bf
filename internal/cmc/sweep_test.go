package cmc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// randomGroups draws up to maxGroups random groups over [0, nObj): they
// overlap freely, repeat, and nest, like a disk cover's would.
func randomGroups(rng *rand.Rand, nObj, maxGroups int) []model.ObjSet {
	groups := make([]model.ObjSet, rng.Intn(maxGroups+1))
	for i := range groups {
		ids := make([]int32, 2+rng.Intn(5))
		for j := range ids {
			ids[j] = int32(rng.Intn(nObj))
		}
		groups[i] = model.NewObjSet(ids...)
	}
	return groups
}

// TestAliveIsTheNonDominatedSet checks the sweep's invariant and its
// documented order against the all-pairs definition, on random overlapping
// groups with gap ticks. After every Step alive must equal, as a sequence:
// for every previous candidate in order, its intersections of size ≥ m with
// the tick's groups in group order; then the groups themselves; minus every
// candidate that another one dominates, the first of equal candidates
// staying.
func TestAliveIsTheNonDominatedSet(t *testing.T) {
	type cand struct {
		objs  model.ObjSet
		start int32
	}
	const m = 2
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mn := NewMiner(m, 3)
		var want []cand
		tick := int32(0)
		for step := 0; step < 25; step++ {
			tick++
			if rng.Intn(8) == 0 {
				tick += int32(1 + rng.Intn(3)) // a gap: nothing survives it
				want = nil
			}
			groups := randomGroups(rng, 10, 6)
			mn.Step(tick, groups)

			var next []cand
			for _, v := range want {
				for _, g := range groups {
					if inter := v.objs.Intersect(g); len(inter) >= m {
						next = append(next, cand{inter, v.start})
					}
				}
			}
			for _, g := range groups {
				next = append(next, cand{g, tick})
			}
			want = nil
			for i, c := range next {
				dominated := false
				for j, d := range next {
					if j == i || d.start > c.start || !c.objs.SubsetOf(d.objs) {
						continue
					}
					if equal := d.start == c.start && d.objs.Equal(c.objs); !equal || j < i {
						dominated = true
					}
				}
				if !dominated {
					want = append(want, c)
				}
			}

			got := make([]cand, len(mn.alive))
			for i, c := range mn.alive {
				got[i] = cand{c.objs, c.start}
			}
			same := func(a, b cand) bool { return a.start == b.start && a.objs.Equal(b.objs) }
			if !slices.EqualFunc(got, want, same) {
				t.Fatalf("seed %d t=%d:\nalive      %v\ndefinition %v", seed, tick, got, want)
			}
		}
	}
}

// TestSweepIsDeterministic replays one input through two miners: the drain
// sequences — order included — must be identical, so nothing in a Step may
// depend on map iteration order.
func TestSweepIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var drains [2][]model.Convoy
		for run := range drains {
			rng := rand.New(rand.NewSource(seed))
			mn := NewMiner(2, 2)
			for tick := int32(0); tick < 40; tick++ {
				mn.Step(tick, randomGroups(rng, 30, 12))
				drains[run] = append(drains[run], mn.Drain()...)
			}
			drains[run] = append(drains[run], mn.Finish()...)
		}
		if !slices.EqualFunc(drains[0], drains[1], model.Convoy.Equal) {
			t.Fatalf("seed %d: two runs over one input drained different sequences", seed)
		}
	}
}

// steadyFeed is a synthetic feed in steady state: nGroups platoons of four
// travel together, and platoon g disperses for one tick whenever
// (t+g) % period == 0. Every tick therefore closes nGroups/period convoys,
// carries the same number of candidates, and the closed set grows linearly.
func steadyFeed(t int32, nGroups, period int) []model.ObjSet {
	var groups []model.ObjSet
	for g := 0; g < nGroups; g++ {
		if (int(t)+g)%period != 0 {
			b := int32(4 * g)
			groups = append(groups, model.ObjSet{b, b + 1, b + 2, b + 3})
		}
	}
	return groups
}

// TestStepCostDoesNotGrowWithClosedConvoys counts the posting entries
// visited and set comparisons made per Step. On a steady feed tick 2000 must
// cost what tick 200 costs, although 18 000 more convoys have closed: a
// sweep that pairs every candidate with every cluster fails this.
func TestStepCostDoesNotGrowWithClosedConvoys(t *testing.T) {
	const nGroups, period = 200, 20
	mn := NewMiner(3, 8)
	cost := map[int32]int{}
	for tick := int32(0); tick <= 2000; tick++ {
		before := mn.work
		mn.Step(tick, steadyFeed(tick, nGroups, period))
		cost[tick] = mn.work - before
		mn.Drain()
	}
	if len(mn.out) < 19_000 {
		t.Fatalf("feed closed only %d convoys; the test needs a growing closed set", len(mn.out))
	}
	if cost[200] == 0 || float64(cost[2000]) > 1.5*float64(cost[200]) {
		t.Fatalf("Step cost %d at tick 2000 against %d at tick 200", cost[2000], cost[200])
	}
	// Output-sensitive: a platoon meets its own cluster only, so a tick costs
	// a few operations per object, nowhere near candidates × clusters.
	if limit := 8 * 4 * nGroups; cost[2000] > limit {
		t.Fatalf("Step cost %d at tick 2000, more than %d for %d objects", cost[2000], limit, 4*nGroups)
	}
}

// TestDrainedSliceStable: Drain hands out a window of the miner's one
// result list, so nothing the miner does later — Steps that close more
// convoys, Finish, Reset and a new stream on the reset miner — may change
// a slice it returned.
func TestDrainedSliceStable(t *testing.T) {
	mn := NewMiner(3, 8)
	var drained [][]model.Convoy
	var want [][]string
	keys := func(cs []model.Convoy) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.Key()
		}
		return out
	}
	check := func(stage string) {
		t.Helper()
		for i, d := range drained {
			if got := keys(d); !slices.Equal(got, want[i]) {
				t.Fatalf("%s: drained slice %d reads %v, was %v", stage, i, got, want[i])
			}
		}
	}
	for tick := int32(0); tick <= 100; tick++ {
		// A long-lived group beside the steady ones closes after convoys
		// that started later, so emission order is not canonical order.
		groups := steadyFeed(tick, 10, 20)
		if tick != 60 {
			groups = append(groups, model.ObjSet{200, 201, 202, 203})
		}
		mn.Step(tick, groups)
		if d := mn.Drain(); len(d) > 0 {
			drained, want = append(drained, d), append(want, keys(d))
		}
	}
	if len(drained) < 3 {
		t.Fatalf("the feed drained %d non-empty batches; the test needs several", len(drained))
	}
	mn.Step(101, steadyFeed(101, 10, 20))
	check("after a Step")
	mn.Finish()
	check("after Finish")
	mn.Reset()
	check("after Reset")
	for tick := int32(0); tick <= 100; tick++ {
		mn.Step(tick, steadyFeed(tick+5, 12, 13))
		mn.Drain()
	}
	mn.Finish()
	check("after a new stream on the reset miner")
}
