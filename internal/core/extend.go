package core

import (
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/pool"
)

// extendAll grows the maximal spanning convoys to their true starts and
// ends (paper §4.5, Algorithm 3): one pass to the right, then one to the
// left. One pass each way covers every maximal pattern, because the
// Grouper is restriction-monotone — see docs/ARCHITECTURE.md, "Why
// extension runs once each way".
func (mi *miner) extendAll(merged []model.Convoy, rep *Report) ([]model.Convoy, error) {
	start := time.Now()
	right, err := mi.extend(merged, +1)
	if err != nil {
		return nil, err
	}
	rep.ExtendRight = time.Since(start)

	start = time.Now()
	out, err := mi.extend(right, -1)
	if err != nil {
		return nil, err
	}
	rep.ExtendLeft = time.Since(start)
	return out, nil
}

// extend grows every convoy in the given direction (+1 = right, -1 = left)
// and returns the maximal convoys the walks close, in canonical order. Each
// convoy extends independently, so the walks fan out over the worker pool,
// each into its own slot; model.Maximal's output depends only on what the
// walks closed, not on their order, so it is the same for every worker
// count.
func (mi *miner) extend(convoys []model.Convoy, dir int32) ([]model.Convoy, error) {
	closed := make([][]model.Convoy, len(convoys))
	err := pool.ForEach(mi.workers, len(convoys), func(i int) error {
		cs, err := mi.extendOne(convoys[i], dir)
		if err != nil {
			return err
		}
		closed[i] = cs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return model.Maximal(slices.Concat(closed...)), nil
}

// extendOne walks one convoy one timestamp at a time in the given
// direction, re-clustering the convoy's objects at each next timestamp. A
// convoy that cannot continue intact is emitted as closed in that
// direction; clusters that survive (possibly smaller) continue. The closed
// convoys are returned in discovery order.
//
// Every candidate born in one step shares the moving edge, so one that is a
// sub-convoy of another (a subset of its objects with an equal-or-wider
// fixed edge) can only ever extend into sub-convoys of the other's
// extensions: the step's Cover.Filter drops it before it is re-clustered.
// On convoy clusters the filter never fires, but flocks' overlapping disks
// need it (docs/ARCHITECTURE.md, "Why the sweeps' result sets need no
// filter"). The walk's two step buffers and its Cover are reused from step
// to step.
func (mi *miner) extendOne(vsp model.Convoy, dir int32) ([]model.Convoy, error) {
	var (
		out, next []model.Convoy
		step      model.Cover
	)
	prev := []model.Convoy{vsp}
	t := edge(vsp, dir) + dir
	for len(prev) > 0 && t >= mi.ts && t <= mi.te {
		next = next[:0]
		for _, v := range prev {
			clusters, err := mi.recluster(t, v.Objs)
			if err != nil {
				return nil, err
			}
			if len(clusters) == 0 {
				out = append(out, v) // closed in this direction
				continue
			}
			survived := false
			for _, c := range clusters {
				w := v
				w.Objs = c
				if dir > 0 {
					w.End = t
				} else {
					w.Start = t
				}
				next = append(next, w)
				if len(c) == len(v.Objs) {
					survived = true
				}
			}
			if !survived {
				// v split or shrank: in its current shape it is closed.
				out = append(out, v)
			}
		}
		prev, next = step.Filter(next), prev
		t += dir
	}
	// Hit the dataset boundary: whatever is still alive is closed.
	return append(out, prev...), nil
}

func edge(v model.Convoy, dir int32) int32 {
	if dir > 0 {
		return v.End
	}
	return v.Start
}
