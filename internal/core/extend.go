package core

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/pool"
)

// maxReExtend bounds the ReExtend fixpoint's iterations (safety valve).
const maxReExtend = 4

// extendAll grows the maximal spanning convoys to their true starts and
// ends (paper §4.5, Algorithm 3): first to the right, then to the left.
// When cfg.ReExtend is set, the two passes repeat until a fixpoint, because
// an object set that shrank while extending left may be further extensible
// to the right (and vice versa) — see DESIGN.md §3.
func (mi *miner) extendAll(merged []model.Convoy, rep *Report) ([]model.Convoy, error) {
	cur := merged
	var prev []model.Convoy // the previous pass's result
	for iter := 0; ; iter++ {
		start := time.Now()
		right, err := mi.extend(cur, +1, &rep.ExtendRightCPU)
		if err != nil {
			return nil, err
		}
		rep.ExtendRight += time.Since(start)

		start = time.Now()
		cur, err = mi.extend(right, -1, &rep.ExtendLeftCPU)
		if err != nil {
			return nil, err
		}
		rep.ExtendLeft += time.Since(start)

		// extend returns canonical order, so a pass that changed nothing
		// compares equal element by element.
		if !mi.cfg.ReExtend || iter+1 >= maxReExtend ||
			slices.EqualFunc(cur, prev, model.Convoy.Equal) {
			return cur, nil
		}
		prev = cur
	}
}

// extend grows every convoy in the given direction (+1 = right, -1 = left).
// Each convoy extends independently, so the walks fan out over the worker
// pool; each task collects its closed convoys in a local slice and the
// maximality merge replays them in task-index order, which makes the result
// identical to the sequential walk for every worker count (the maximality
// filter is also order-confluent, but replaying in order keeps even the
// internal set states bit-for-bit equal). Summed task time lands in cpu.
func (mi *miner) extend(convoys []model.Convoy, dir int32, cpu *time.Duration) ([]model.Convoy, error) {
	closed := make([][]model.Convoy, len(convoys))
	var taskCPU atomic.Int64
	err := pool.ForEach(mi.workers, len(convoys), func(i int) error {
		t0 := time.Now()
		defer func() { taskCPU.Add(int64(time.Since(t0))) }()
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
	*cpu += time.Duration(taskCPU.Load())
	out := model.NewConvoySet()
	for _, cs := range closed {
		out.UpdateAll(cs)
	}
	return out.Sorted(), nil
}

// extendOne walks one convoy one timestamp at a time in the given
// direction, re-clustering the convoy's objects at each next timestamp. A
// convoy that cannot continue intact is emitted as closed in that
// direction; clusters that survive (possibly smaller) continue. The closed
// convoys are returned in discovery order.
func (mi *miner) extendOne(vsp model.Convoy, dir int32) ([]model.Convoy, error) {
	var out []model.Convoy
	prev := []model.Convoy{vsp}
	t := edge(vsp, dir) + dir
	for len(prev) > 0 && t >= mi.ts && t <= mi.te {
		var next []model.Convoy
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
		prev = extendDominate(next, dir)
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

// extendDominate prunes, among in-flight extension candidates that share
// the moving edge, those whose object set is a subset of another candidate
// with an equal-or-wider fixed edge.
func extendDominate(cands []model.Convoy, dir int32) []model.Convoy {
	fixedLE := func(a, b model.Convoy) bool { // fixed edge of a at least as wide as b's
		if dir > 0 {
			return a.Start <= b.Start
		}
		return a.End >= b.End
	}
	var out []model.Convoy
	for _, c := range cands {
		dominated := false
		for j := 0; j < len(out); j++ {
			switch {
			case fixedLE(out[j], c) && c.Objs.SubsetOf(out[j].Objs):
				dominated = true
			case fixedLE(c, out[j]) && out[j].Objs.SubsetOf(c.Objs):
				out[j] = out[len(out)-1]
				out = out[:len(out)-1]
				j--
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}
