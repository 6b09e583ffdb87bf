// merge.go implements the DCM merge algorithm of Orakzai et al. (MDM'16):
// combining partial convoys mined in adjacent time partitions into maximal
// convoys. DCM's reduce phase folds its partitions with it, and k/2-hop
// reuses it verbatim to merge 1st-order spanning convoys from adjacent
// hop-windows into maximal spanning convoys (paper §4.4, Table 3).
package dcm

import "repro/internal/model"

// Merge folds per-slice convoy sets (ordered left to right; slice i+1
// begins at the tick where slice i ends, and only convoys ending at that
// tick can merge with convoys of slice i+1 starting there) into maximal
// merged convoys. minSize is the m parameter: merged object sets below it
// are discarded.
//
// The procedure mirrors the paper's Table 3: convoys of the accumulator
// that extend into the next slice continue (with the intersected object
// set); convoys that cannot extend intact are final. The accumulator and
// the result are model.ConvoySets, so a convoy covered by another is
// dropped as soon as both are known: every future merge of a dominated
// convoy is a sub-convoy of a merge of its dominator.
func Merge(slices [][]model.Convoy, minSize int) []model.Convoy {
	var results, acc model.ConvoySet
	for _, cur := range slices {
		var next model.ConvoySet
		for _, v := range acc.Slice() {
			extended := false
			for _, w := range cur {
				if v.End != w.Start {
					continue
				}
				inter := v.Objs.Intersect(w.Objs)
				if len(inter) < minSize {
					continue
				}
				next.Update(model.Convoy{Objs: inter, Start: v.Start, End: w.End})
				if len(inter) == len(v.Objs) {
					extended = true
				}
			}
			if !extended {
				// v cannot continue intact; it is a maximal merged convoy
				// (possibly still extendable in time by the extension phase,
				// but not by whole-window merging).
				results.Update(v)
			}
		}
		// Convoys of the current slice start their own chains; merged
		// versions that fully cover them dominate and win in the prune.
		next.UpdateAll(cur)
		acc = next
	}
	results.UpdateAll(acc.Slice())
	return results.Sorted()
}
