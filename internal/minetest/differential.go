package minetest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dbscan"
	"repro/internal/model"
)

// This file is the differential-testing harness: generators and comparators
// for cross-validating every miner against every other. Two result sets are
// comparable in two regimes:
//
//   - same pattern class (e.g. the streaming miner vs the batch PCCD
//     sweep): results must be identical on ANY dataset — use Random;
//   - different pattern classes (FC miners like k/2-hop vs PC miners like
//     PCCD): results coincide exactly when every density cluster is a
//     clique, because then any subset of a cluster is density-connected on
//     its own, making every partially connected convoy fully connected —
//     use RandomClique, whose construction guarantees clique clusters.

// SweepTick is one step of ReferenceSweep: the groups of timestamp T.
type SweepTick struct {
	T      int32
	Groups []model.ObjSet
}

// ReferenceSweep is a deliberately naive CMC/PCCD sweep over sorted-slice
// ObjSets: intersect every alive candidate with every group of the tick via
// ObjSet.Intersect, prune dominated candidates with all-pairs
// ObjSet.SubsetOf, reduce the results with ReferenceMaximal. It is a
// frozen transliteration of the algorithm's definition, kept free of every
// production shortcut on purpose — no postings, no reliance on the closing
// order making results maximal — so the differential suite can assert that
// cmc.Miner and everything stacked on it is byte-identical to the
// definition. Groups may overlap
// (disk covers do), and timestamps may skip: a gap closes every candidate
// at the last tick before it.
func ReferenceSweep(ticks []SweepTick, m, k int) []model.Convoy {
	type cand struct {
		objs  model.ObjSet
		start int32
	}
	var results []model.Convoy
	var alive []cand
	closeAt := func(v cand, end int32) {
		if int(end-v.start)+1 >= k {
			results = append(results, model.Convoy{Objs: v.objs, Start: v.start, End: end})
		}
	}
	var last int32
	for i, tk := range ticks {
		if i > 0 && tk.T != last+1 {
			for _, v := range alive {
				closeAt(v, last)
			}
			alive = nil
		}
		var next []cand
		for _, v := range alive {
			survived := false
			for _, c := range tk.Groups {
				inter := v.objs.Intersect(c)
				if len(inter) < m {
					continue
				}
				if len(inter) == len(v.objs) {
					survived = true
				}
				next = append(next, cand{objs: inter, start: v.start})
			}
			if !survived {
				closeAt(v, last)
			}
		}
		for _, c := range tk.Groups {
			next = append(next, cand{objs: c, start: tk.T})
		}
		// Domination pruning over all pairs; of equal candidates the first
		// stays.
		var pruned []cand
		for _, c := range next {
			dominated := false
			for j := 0; j < len(pruned); j++ {
				switch {
				case pruned[j].start <= c.start && c.objs.SubsetOf(pruned[j].objs):
					dominated = true
				case c.start <= pruned[j].start && pruned[j].objs.SubsetOf(c.objs):
					pruned[j] = pruned[len(pruned)-1]
					pruned = pruned[:len(pruned)-1]
					j--
				}
				if dominated {
					break
				}
			}
			if !dominated {
				pruned = append(pruned, c)
			}
		}
		alive, last = pruned, tk.T
	}
	for _, v := range alive {
		closeAt(v, last)
	}
	return ReferenceMaximal(results)
}

// ReferenceMaximal is the brute-force maximality filter, the oracle for
// model.Maximal and for the miners whose closing order is argued to leave
// nothing to filter. It is the definition over all pairs: a convoy stays
// unless another contains it, and of equal convoys the first stays. It
// returns the survivors in canonical order and leaves cs as it is.
func ReferenceMaximal(cs []model.Convoy) []model.Convoy {
	out := []model.Convoy{}
	for i, v := range cs {
		kept := true
		for j, w := range cs {
			if j != i && v.SubConvoyOf(w) && (!v.Equal(w) || j < i) {
				kept = false
			}
		}
		if kept {
			out = append(out, v)
		}
	}
	model.SortConvoys(out)
	return out
}

// ReferencePCCD is ReferenceSweep over the density clusters of every
// snapshot of ds: the oracle for the convoy miners.
func ReferencePCCD(ds *model.Dataset, m, k int, eps float64) []model.Convoy {
	var ticks []SweepTick
	ts, te := ds.TimeRange()
	for t := ts; t <= te; t++ {
		ticks = append(ticks, SweepTick{T: t, Groups: dbscan.Cluster(ds.Snapshot(t), eps, m)})
	}
	return ReferenceSweep(ticks, m, k)
}

// RandomClique produces a dataset like Random — wandering groups, defecting
// members, assorted convoy lengths — but with a geometric guarantee: every
// (m,eps)-cluster at every tick is a clique (all members pairwise within
// Eps). Three invariants deliver this:
//
//   - group members sit within a span strictly below Eps (slots are
//     Eps/(nObj+1) apart), so any subset of a group is pairwise in range;
//   - groups are 1000 apart and drift < 3 per tick, so members of
//     different groups are never within Eps of each other;
//   - objects that are solo (or defecting for a tick) park in a private
//     parcel at y = SoloY, one per object, ≥ 900 from everything else, so
//     they can never chain two groups or each other.
//
// Deterministic in seed. Verify the guarantee with CliqueClusters.
func RandomClique(seed int64, nObj, nTicks int) *model.Dataset {
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
	slot := Eps / float64(nObj+1)
	var pts []model.Point
	for t := 0; t < nTicks; t++ {
		for g := range groupX {
			groupX[g] += rng.Float64() * 3
		}
		for o := 0; o < nObj; o++ {
			p := model.Point{OID: int32(o), T: int32(t)}
			if group[o] >= 0 && rng.Float64() < 0.9 {
				p.X = groupX[group[o]] + float64(o)*slot
				p.Y = 0
			} else {
				// Solo parcel: isolated by construction.
				p.X = -float64(o+1)*1000 + rng.Float64()*2
				p.Y = SoloY
			}
			pts = append(pts, p)
		}
		if rng.Float64() < 0.2 {
			o := rng.Intn(nObj)
			group[o] = rng.Intn(nGroups+1) - 1
		}
	}
	return model.NewDataset(pts)
}

// SoloY is the y-coordinate of RandomClique's solo parcels.
const SoloY = 10000

// CliqueClusters reports whether every (m,eps)-cluster at every tick of ds
// is a clique (all members pairwise within eps). This is the premise that
// makes FC and PC mining semantics coincide; the differential tests assert
// it on every RandomClique dataset they use.
func CliqueClusters(ds *model.Dataset, eps float64, m int) bool {
	ts, te := ds.TimeRange()
	for t := ts; t <= te; t++ {
		snap := ds.Snapshot(t)
		byOID := make(map[int32]model.ObjPos, len(snap))
		for _, p := range snap {
			byOID[p.OID] = p
		}
		for _, cl := range dbscan.Cluster(snap, eps, m) {
			for i := 0; i < len(cl); i++ {
				for j := i + 1; j < len(cl); j++ {
					if model.DistSq(byOID[cl[i]], byOID[cl[j]]) > eps*eps {
						return false
					}
				}
			}
		}
	}
	return true
}

// DiffConvoys compares two convoy sets and returns a human-readable
// description of the difference, or "" when they are identical (as sets;
// both inputs are sorted in place). The report names which side each
// unmatched convoy came from, which makes differential-test failures
// directly actionable.
func DiffConvoys(labelA string, a []model.Convoy, labelB string, b []model.Convoy) string {
	model.SortConvoys(a)
	model.SortConvoys(b)
	if model.ConvoysEqual(a, b) {
		return ""
	}
	keys := func(cs []model.Convoy) map[string]model.Convoy {
		m := make(map[string]model.Convoy, len(cs))
		for _, c := range cs {
			m[c.Key()] = c
		}
		return m
	}
	ka, kb := keys(a), keys(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "convoy sets differ (%s: %d, %s: %d)", labelA, len(a), labelB, len(b))
	for _, c := range a {
		if _, ok := kb[c.Key()]; !ok {
			fmt.Fprintf(&sb, "\n  only in %s: %v", labelA, c)
		}
	}
	for _, c := range b {
		if _, ok := ka[c.Key()]; !ok {
			fmt.Fprintf(&sb, "\n  only in %s: %v", labelB, c)
		}
	}
	return sb.String()
}

// Canonical renders a convoy set in canonical order as one string — the
// "byte-identical" comparison form used by the differential tests (sorts
// its input in place).
func Canonical(cs []model.Convoy) string {
	model.SortConvoys(cs)
	var sb strings.Builder
	for _, c := range cs {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
