// merge.go implements the DCM merge algorithm of Orakzai et al. (MDM'16):
// combining partial convoys mined in adjacent time partitions into maximal
// convoys. DCM's reduce phase folds its partitions with it, and k/2-hop
// reuses it verbatim to merge 1st-order spanning convoys from adjacent
// hop-windows into maximal spanning convoys (paper §4.4, Table 3).
package dcm

import (
	"repro/internal/model"
	"repro/internal/postings"
)

// Merge folds per-slice convoy sets (ordered left to right; slice i+1
// begins at the tick where slice i ends, and only convoys ending at that
// tick can merge with convoys of slice i+1 starting there) into maximal
// merged convoys. minSize is the m parameter, at least 1: merged object
// sets below it are discarded.
//
// The procedure mirrors the paper's Table 3: convoys of the accumulator
// that extend into the next slice continue (with the intersected object
// set); convoys that cannot extend intact are final. Pairs are found
// through a postings.Index over each slice's convoys: v meets only the
// convoys it shares objects with, a pair below minSize costs no
// intersection, and v extends intact where the shared count is |v|. The
// v.End == w.Start test rejects pairs only in DCM, whose partition convoys
// may start after a slice's first tick or end before its last. The
// accumulator is reduced with model.Cover.Filter after every slice, so a
// convoy covered by another is dropped as soon as both are known: every
// future merge of a dominated convoy is a sub-convoy of a merge of its
// dominator.
//
// The final convoys are appended with no filter: a final convoy's
// would-be dominator descends from a convoy of the same filtered
// accumulator, which either covers it (so it was filtered out) or is it
// (so it extended intact). That needs every input convoy to have at least
// minSize objects, and either no single-tick convoy at a later slice's
// first tick (k/2-hop: spanning convoys span whole hop-windows) or every
// convoy ending at the next slice's first tick to lie inside a convoy of
// the next slice starting there (DCM: every cluster at the shared tick
// starts a kept border convoy of the later partition). The proof is in
// docs/ARCHITECTURE.md, "Why the sweeps' result sets need no filter".
func Merge(slices [][]model.Convoy, minSize int) []model.Convoy {
	var (
		results, acc, next []model.Convoy
		cover              model.Cover
		bySlice            postings.Index
	)
	for _, cur := range slices {
		bySlice.Build(len(cur), func(j int) model.ObjSet { return cur[j].Objs })
		next = next[:0]
		for _, v := range acc {
			extended := false
			for _, h := range bySlice.Overlaps(v.Objs) {
				w := cur[h.Set]
				if int(h.N) < minSize || v.End != w.Start {
					continue
				}
				next = append(next, model.Convoy{Objs: v.Objs.Intersect(w.Objs), Start: v.Start, End: w.End})
				if int(h.N) == len(v.Objs) {
					extended = true
				}
			}
			if !extended {
				// v cannot continue intact; it is a maximal merged convoy
				// (possibly still extendable in time by the extension phase,
				// but not by whole-window merging).
				results = append(results, v)
			}
		}
		// Convoys of the current slice start their own chains; merged
		// versions that fully cover them dominate and win in the filter.
		next = append(next, cur...)
		acc, next = cover.Filter(next), acc
	}
	results = append(results, acc...)
	model.SortConvoys(results)
	return results
}
