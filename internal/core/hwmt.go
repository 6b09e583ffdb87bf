package core

import "repro/internal/model"

// hwmt runs the Hop-Window Mining Tree (paper §4.3, Algorithm 2) over the
// interior timestamps [lo, hi] of a hop-window, starting from the window's
// candidate cluster set. Timestamps are visited in binary-bisection level
// order (root = middle, then the middles of each half, …), which validates
// "togetherness" at the most distant timestamps first: objects that are
// only coincidentally near each other at the benchmark points usually
// separate at the window's middle, so whole windows are pruned after one or
// two re-clusterings.
//
// Each re-clustering level dedups its output, keyed on the clusters' raw ids
// (ObjSet.AppendKey). Different candidates routinely shrink to the same
// surviving group; re-clustering such a duplicate would re-fetch and
// re-cluster identical rows at every remaining level for an identical
// outcome, so duplicates are dropped at birth. This only removes repeated
// work — the set of distinct survivors, and therefore the mined convoys, is
// unchanged.
//
// The survivors are object sets that form a cluster at every interior
// timestamp of the window — the 1st-order spanning convoys, whose lifespan
// the caller sets to the bordering benchmark points.
//
// An empty interior (hi < lo, which happens for K = 2 or 3 where the hop is
// 1) returns the candidates unchanged: togetherness at both benchmark
// points is all a spanning convoy needs.
func (mi *miner) hwmt(lo, hi int32, cc []model.ObjSet) ([]model.ObjSet, error) {
	order := bisectOrder(lo, hi)
	if len(order) == 0 {
		return cc, nil
	}
	var keyBuf []byte
	seen := map[string]bool{}
	cands := cc
	for _, t := range order {
		var next []model.ObjSet
		clear(seen)
		for _, objs := range cands {
			clusters, err := mi.recluster(t, objs)
			if err != nil {
				return nil, err
			}
			for _, c := range clusters {
				keyBuf = c.AppendKey(keyBuf[:0])
				if seen[string(keyBuf)] {
					continue
				}
				seen[string(keyBuf)] = true
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			return nil, nil // no spanning convoy in this window
		}
		cands = next
	}
	return cands, nil
}

// bisectOrder returns the timestamps of [lo, hi] in HWMT level order: the
// middle first, then the middles of the left and right halves, and so on
// (a BFS of the implicit binary search tree, matching the paper's Fig 4).
func bisectOrder(lo, hi int32) []int32 {
	if hi < lo {
		return nil
	}
	type span struct{ a, b int32 }
	queue := []span{{lo, hi}}
	out := make([]int32, 0, int(hi-lo)+1)
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.b < s.a {
			continue
		}
		mid := s.a + (s.b-s.a)/2
		out = append(out, mid)
		queue = append(queue, span{s.a, mid - 1}, span{mid + 1, s.b})
	}
	return out
}
