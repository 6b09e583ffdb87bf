// Package minetest provides shared scaffolding for convoy-miner tests: a
// scenario builder that places groups of objects at controlled distances, a
// random dataset generator tuned to produce convoys, and invariant checkers
// (is this really a convoy? is it fully connected?) used to cross-validate
// every miner against the reference implementation.
package minetest

import (
	"math/rand"

	"repro/internal/dbscan"
	"repro/internal/model"
)

// Eps is the clustering radius the scenario builder is calibrated for.
const Eps = 1.5

// Spacing is the gap between adjacent objects of the same group: below Eps,
// so a group forms a chain-connected cluster, but 2×Spacing > Eps, so
// non-adjacent members are NOT directly in range — removing a middle object
// splits the group, which is exactly what full-connectivity tests need.
const Spacing = 1.2

// Build lays out a scenario. groups[t] is the list of object groups present
// at tick t; each group's members are placed Spacing apart on the x-axis,
// groups are 1000 apart, and the group order is significant only for
// placement. Objects keep their slot within a group across ticks, so a
// stable group produces a stable cluster.
func Build(groups map[int32][][]int32) *model.Dataset {
	var pts []model.Point
	for t, gs := range groups {
		for gi, g := range gs {
			for oi, oid := range g {
				pts = append(pts, model.Point{
					OID: oid,
					T:   t,
					X:   float64(gi)*1000 + float64(oi)*Spacing,
					Y:   0,
				})
			}
		}
	}
	return model.NewDataset(pts)
}

// Range builds groups that persist over an interval: spec maps an interval
// to the groups alive throughout it. Later entries are appended after
// earlier ones at each tick (placement order).
type Range struct {
	Start, End int32
	Groups     [][]int32
}

// BuildRanges assembles a dataset from interval specs.
func BuildRanges(specs []Range) *model.Dataset {
	groups := map[int32][][]int32{}
	for _, sp := range specs {
		for t := sp.Start; t <= sp.End; t++ {
			groups[t] = append(groups[t], sp.Groups...)
		}
	}
	return Build(groups)
}

// LeavingBridge is a scenario whose candidate fails validation under every
// miner, k/2-hop included. Objects 1, 2, 3 travel together over [0,19], but
// up to tick 8 object 3 hangs on only through object 4 (the chain is
// 1-2-4-3), which leaves at tick 9. ({1,2,3},[0,19]) is a partially
// connected convoy, and for m=2, k=4 it survives k/2-hop's phases 1–5: tick
// 8 is a benchmark point, where the full snapshot is clustered, and hop-window
// mining re-clusters {1,2,3} among themselves only at the interior tick 9,
// by which time they are adjacent. It is not fully connected; the maximal FC
// convoys for m=2, k=4 are the second result.
func LeavingBridge() (*model.Dataset, []model.Convoy) {
	ds := BuildRanges([]Range{
		{Start: 0, End: 8, Groups: [][]int32{{1, 2, 4, 3}}},
		{Start: 9, End: 19, Groups: [][]int32{{1, 2, 3}, {4}}},
	})
	return ds, []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 0, 8),
		model.NewConvoy(model.NewObjSet(1, 2), 0, 19),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 9, 19),
	}
}

// Random produces a dataset where a few groups wander together and objects
// occasionally defect, generating convoys of assorted lengths plus noise.
// Deterministic in seed.
func Random(seed int64, nObj, nTicks int) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	nGroups := nObj/4 + 1
	group := make([]int, nObj) // group of each object; -1 = solo
	for o := range group {
		if rng.Float64() < 0.3 {
			group[o] = -1
		} else {
			group[o] = rng.Intn(nGroups)
		}
	}
	groupX := make([]float64, nGroups)
	for g := range groupX {
		groupX[g] = float64(g) * 1000
	}
	var pts []model.Point
	for t := 0; t < nTicks; t++ {
		// Groups drift; solo objects jump around.
		for g := range groupX {
			groupX[g] += rng.Float64() * 3
		}
		for o := 0; o < nObj; o++ {
			var x float64
			switch {
			case group[o] >= 0 && rng.Float64() < 0.9:
				slot := 0
				for q := 0; q < o; q++ {
					if group[q] == group[o] {
						slot++
					}
				}
				x = groupX[group[o]] + float64(slot)*Spacing
			default:
				x = rng.Float64() * float64(nGroups) * 1000
			}
			pts = append(pts, model.Point{OID: int32(o), T: int32(t), X: x, Y: 0})
		}
		// Occasionally reshuffle an object's group membership.
		if rng.Float64() < 0.2 {
			o := rng.Intn(nObj)
			group[o] = rng.Intn(nGroups+1) - 1
		}
	}
	return model.NewDataset(pts)
}

// RandomChurn is Random with presence churn: objects join and leave the
// feed mid-stream (each flips in/out with 10% probability per tick), groups
// drift, members defect — the adversarial regime for delta-fed clustering,
// where every tick mixes moved, appeared and disappeared objects.
// Deterministic in seed.
func RandomChurn(seed int64, nObj, nTicks int) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	nGroups := nObj/4 + 1
	group := make([]int, nObj) // group of each object; -1 = solo
	present := make([]bool, nObj)
	for o := range group {
		if rng.Float64() < 0.3 {
			group[o] = -1
		} else {
			group[o] = rng.Intn(nGroups)
		}
		present[o] = rng.Float64() < 0.8
	}
	groupX := make([]float64, nGroups)
	for g := range groupX {
		groupX[g] = float64(g) * 1000
	}
	var pts []model.Point
	for t := 0; t < nTicks; t++ {
		for g := range groupX {
			groupX[g] += rng.Float64() * 3
		}
		for o := 0; o < nObj; o++ {
			if rng.Float64() < 0.1 {
				present[o] = !present[o] // join or leave the feed
			}
			if !present[o] {
				continue
			}
			var x float64
			switch {
			case group[o] >= 0 && rng.Float64() < 0.9:
				slot := 0
				for q := 0; q < o; q++ {
					if group[q] == group[o] {
						slot++
					}
				}
				x = groupX[group[o]] + float64(slot)*Spacing
			default:
				x = rng.Float64() * float64(nGroups) * 1000
			}
			pts = append(pts, model.Point{OID: int32(o), T: int32(t), X: x, Y: 0})
		}
		if rng.Float64() < 0.2 {
			o := rng.Intn(nObj)
			group[o] = rng.Intn(nGroups+1) - 1
		}
	}
	return model.NewDataset(pts)
}

// IsConvoy verifies Definition 3 directly: at every tick of the interval
// the convoy's objects are inside a single (m,eps)-cluster of the full
// snapshot.
func IsConvoy(ds *model.Dataset, c model.Convoy, m int, eps float64) bool {
	if c.Size() < m || c.Len() < 1 {
		return false
	}
	for t := c.Start; t <= c.End; t++ {
		clusters := dbscan.Cluster(ds.Snapshot(t), eps, m)
		ok := false
		for _, cl := range clusters {
			if c.Objs.SubsetOf(cl) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsFCConvoy verifies Definition 4 directly: the convoy's objects form a
// convoy in the dataset restricted to exactly those objects.
func IsFCConvoy(ds *model.Dataset, c model.Convoy, m int, eps float64) bool {
	sub := ds.Restrict(c.Objs, c.Interval())
	return IsConvoy(sub, c, m, eps)
}

// AssertMaximal reports the first pair (i, j) where convoy i is a strict
// sub-convoy of convoy j, or (-1, -1) when the set is maximal.
func AssertMaximal(cs []model.Convoy) (int, int) {
	for i := range cs {
		for j := range cs {
			if i != j && cs[i].StrictSubConvoyOf(cs[j]) {
				return i, j
			}
		}
	}
	return -1, -1
}
