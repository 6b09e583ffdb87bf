package dbscan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// Incremental maintains DBSCAN clustering across a stream of snapshots.
// Consecutive ticks of a trajectory feed share almost all objects and almost
// all cluster structure, so instead of rebuilding the grid index and
// re-running every eps-neighbourhood query per tick (what Cluster does), an
// Incremental carries three things across ticks:
//
//   - the Index — the same flat sorted grid Cluster builds, over a slot
//     table instead of the input slice — patched by a filter+merge pass
//     instead of a full rebuild+sort;
//   - each live object's cached eps-neighbourhood (as point slots);
//   - the object→slot identity map used to diff snapshots by OID.
//
// Each Step diffs the new snapshot against the previous one, classifying
// every object as unchanged, moved, appeared or disappeared, and patches
// the cache symmetrically (applyDeltas): a moved or appeared object runs
// one grid query, at its new position, and the answer is its new
// neighbourhood; t neighbours s exactly when s neighbours t, so the
// difference to its old neighbourhood names the unchanged objects whose
// lists lose or gain it, and those are edited in place. A disappeared
// object runs no query — its cached list names the lists to strike it
// from. A tick thus costs one query per object that changed, never more
// than the one per object that scratch runs.
//
// Clustering is then *replayed*: the same expand that Cluster runs over
// fresh grid queries runs over the cached neighbourhoods instead. The
// output is byte-identical to a from-scratch Cluster call on the same
// snapshot because the cache holds, as sets, exactly what the scratch grid
// would answer, and expand's output depends on nothing else — in
// particular not on the order inside a list, which the in-place edits
// scramble (see expand).
//
// When a snapshot falls outside the regime the delta reasoning is proven
// for, Step degrades to scratch Cluster (still byte-identical, trivially)
// and drops its state:
//
//   - duplicate OIDs within one snapshot (identity diffing is ill-defined);
//   - coordinates whose cell index would overflow int32 (grid geometry, and
//     with it the symmetry of the query, breaks down), including NaN/Inf
//     positions;
//   - degenerate eps (≤ 0, NaN or Inf), where Cluster's own grid is already
//     clamped to a point-sized cell;
//   - cached neighbourhoods exceeding the memory cap (pathologically dense
//     data), with a backoff so near-quadratic inputs don't thrash rebuilds.
//
// An Incremental is not safe for concurrent use; like cmc.Miner it relies
// on the single-owner-per-feed rule of the convoyd shard actors. Batch
// miners (k/2-hop, DCM, CMC reference) keep calling scratch Cluster — their
// phases cluster arbitrary timestamps in arbitrary order, so there is no
// previous tick to diff against, and the scratch path doubles as the frozen
// oracle the differential and fuzz suites compare this engine to.
type Incremental struct {
	eps    float64
	epsSq  float64
	minPts int

	// degenerate pins the engine to scratch Cluster forever: with eps ≤ 0
	// every point is its own sole neighbour and there is nothing to amortise.
	degenerate bool
	// valid reports whether the carried state describes the previous tick.
	// False initially, after Reset, and after any fallback tick.
	valid bool
	// scratchTicks > 0 forces that many Steps through scratch Cluster before
	// the next rebuild attempt (set when the edge cap trips).
	scratchTicks int

	// --- carried state (valid == true) -----------------------------------
	idx        Index           // pos: slot → object; entries: the live slots, in key order only once patched
	oidSlot    map[int32]int32 // OID → slot
	nbr        [][]int32       // slot → cached eps-neighbourhood (slots, incl. self)
	alive      []int32         // live slots, arbitrary order
	freeSlots  []int32         // recyclable slots; freed at end of tick, so a slot never moves between objects within one tick
	totalEdges int

	// --- per-tick scratch, reused across ticks ---------------------------
	epoch     int64
	seenTick  []int64 // slot → epoch when matched in the input pass
	deltaTick []int64 // slot → epoch when it moved, appeared or disappeared
	rmTick    []int64 // slot → epoch when its grid entry is scheduled out
	stamp     int64   // one value per moved slot, for the old-vs-new list diff
	mark      []int64 // slot → stamp while it is in the old list only
	labels    []int32 // slot → expand's label
	inOrder   []int32 // input index → slot
	moved     []movedRec
	gone      []int32
	appeared  []int32
	adds      []entry
	mergeBuf  []entry
	qbuf      []int32

	stats IncrementalStats
}

type movedRec struct {
	slot   int32
	oldKey uint64 // cell key of the position it left
}

// IncrementalStats counts what the engine did since construction (they
// survive Reset). Tests assert the delta machinery through these: a
// no-delta tick or a removal must run zero grid queries, a move exactly
// one, a fallback must be visible.
type IncrementalStats struct {
	Ticks       int64 // Step calls
	Rebuilds    int64 // full state rebuilds (first tick, post-Reset, post-fallback)
	Fallbacks   int64 // ticks answered by scratch Cluster
	GridQueries int64 // index queries: one per object in a rebuild, one per moved or appeared object in a delta tick
	Recomputed  int64 // cached lists replaced by a query's answer in delta ticks (moved + appeared objects)
	Patched     int64 // entries added to or struck from unchanged objects' cached lists in place
}

const (
	// edgeCap bounds the cached-neighbourhood memory: past 64 neighbours per
	// point on average the data is far denser than convoy workloads (group
	// sizes of tens), the incremental win evaporates, and the cache would
	// approach O(n²); degrade to scratch instead.
	edgeCapPerPoint = 64
	edgeCapSlack    = 4096
	// scratchBackoff is how many ticks to stay on scratch Cluster after the
	// edge cap trips, so a persistently dense feed pays one wasted rebuild
	// per backoff window instead of per tick.
	scratchBackoff = 16
)

func edgeCap(n int) int { return edgeCapPerPoint*n + edgeCapSlack }

// NewIncremental creates an incremental clustering engine for the given
// DBSCAN parameters (the same eps and minPts that would be passed to
// Cluster).
func NewIncremental(eps float64, minPts int) (*Incremental, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("dbscan: minPts must be ≥ 1, got %d", minPts)
	}
	return &Incremental{
		eps:        eps,
		epsSq:      eps * eps,
		minPts:     minPts,
		degenerate: eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0),
		idx:        Index{cell: eps},
		oidSlot:    make(map[int32]int32),
	}, nil
}

// Stats returns the cumulative counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Reset discards all carried state and releases its memory, returning the
// engine to its initial condition (counters excepted). The next Step
// rebuilds from scratch. StreamMiner.Reset and convoyd feed eviction route
// here.
func (inc *Incremental) Reset() {
	*inc = Incremental{
		eps:        inc.eps,
		epsSq:      inc.epsSq,
		minPts:     inc.minPts,
		degenerate: inc.degenerate,
		idx:        Index{cell: inc.eps},
		oidSlot:    make(map[int32]int32),
		epoch:      inc.epoch,
		stats:      inc.stats,
	}
}

// Step ingests the next snapshot and returns its (minPts,eps)-clusters,
// byte-identical to Cluster(objs, eps, minPts): same sorted member sets in
// the same deterministic order. The input slice is not modified and not
// retained. Unlike Cluster, Step is stateful: consecutive calls must carry
// consecutive snapshots of the same feed for the delta reasoning to pay
// off (correctness never depends on it — any sequence of snapshots yields
// scratch-identical output, a fully disjoint one just rebuilds everything).
func (inc *Incremental) Step(objs []model.ObjPos) []model.ObjSet {
	inc.stats.Ticks++
	if inc.degenerate {
		return inc.fallback(objs)
	}
	if inc.scratchTicks > 0 {
		inc.scratchTicks--
		return inc.fallback(objs)
	}
	if !inc.valid {
		return inc.rebuild(objs)
	}
	return inc.advance(objs)
}

// fallback answers one tick with scratch Cluster. Callers that detected an
// inconsistency mid-update must clearState first.
func (inc *Incremental) fallback(objs []model.ObjPos) []model.ObjSet {
	inc.stats.Fallbacks++
	return Cluster(objs, inc.eps, inc.minPts)
}

// clearState drops all carried state (releasing neighbourhood memory) but
// keeps slice capacity where harmless, so the rebuild after a transient
// fallback reuses buffers.
func (inc *Incremental) clearState() {
	inc.valid = false
	clear(inc.oidSlot)
	for i := range inc.nbr {
		inc.nbr[i] = nil
	}
	inc.nbr = inc.nbr[:0]
	inc.idx.pos = inc.idx.pos[:0]
	inc.idx.entries = inc.idx.entries[:0]
	inc.alive = inc.alive[:0]
	inc.freeSlots = inc.freeSlots[:0]
	inc.adds = inc.adds[:0]
	inc.seenTick = inc.seenTick[:0]
	inc.deltaTick = inc.deltaTick[:0]
	inc.mark = inc.mark[:0]
	inc.rmTick = inc.rmTick[:0]
	inc.labels = inc.labels[:0]
	inc.totalEdges = 0
}

// allocSlot assigns a slot to a newly appeared object. Freed slots are only
// recycled on later ticks (freeSlots grows at end-of-tick), so within one
// tick a slot identifies one object in every cached structure.
func (inc *Incremental) allocSlot(p model.ObjPos) int32 {
	var s int32
	if k := len(inc.freeSlots); k > 0 {
		s = inc.freeSlots[k-1]
		inc.freeSlots = inc.freeSlots[:k-1]
		inc.idx.pos[s] = p
		inc.nbr[s] = inc.nbr[s][:0]
	} else {
		s = int32(len(inc.idx.pos))
		inc.idx.pos = append(inc.idx.pos, p)
		inc.nbr = append(inc.nbr, nil)
		inc.seenTick = append(inc.seenTick, 0)
		inc.deltaTick = append(inc.deltaTick, 0)
		inc.mark = append(inc.mark, 0)
		inc.rmTick = append(inc.rmTick, 0)
		inc.labels = append(inc.labels, 0)
	}
	inc.oidSlot[p.OID] = s
	inc.alive = append(inc.alive, s)
	return s
}

// query answers slot s's eps-neighbourhood from the index: the same call,
// and so bit for bit the same float comparisons, as scratch Cluster's.
func (inc *Incremental) query(s int32, dst []int32) []int32 {
	inc.stats.GridQueries++
	return inc.idx.Within(inc.idx.pos[s], inc.epsSq, 1, dst)
}

// rebuild constructs the full state from one snapshot: every slot, the
// sorted grid, every neighbourhood. Costs one scratch clustering plus the
// cache fill; subsequent ticks amortise it.
func (inc *Incremental) rebuild(objs []model.ObjPos) []model.ObjSet {
	inc.stats.Rebuilds++
	inc.clearState()
	inc.epoch++
	inOrder := inc.inOrder[:0]
	for _, p := range objs {
		if _, dup := inc.oidSlot[p.OID]; dup || !inc.idx.cellable(p) {
			inc.clearState()
			return inc.fallback(objs)
		}
		s := inc.allocSlot(p)
		inc.seenTick[s] = inc.epoch
		inOrder = append(inOrder, s)
	}
	inc.inOrder = inOrder
	inc.idx.build() // no slot is free yet, so the slot table is the snapshot
	cap := edgeCap(len(objs))
	for _, s := range inOrder {
		inc.nbr[s] = inc.query(s, inc.nbr[s][:0])
		inc.totalEdges += len(inc.nbr[s])
		if inc.totalEdges > cap {
			inc.clearState()
			inc.scratchTicks = scratchBackoff
			return inc.fallback(objs)
		}
	}
	inc.valid = true
	return inc.replay()
}

// advance is the incremental tick: diff, patch the grid and the cached
// neighbourhoods, replay.
func (inc *Incremental) advance(objs []model.ObjPos) []model.ObjSet {
	inc.epoch++
	ep := inc.epoch

	// Pass 1 — match the snapshot against carried identity, in input order.
	inOrder := inc.inOrder[:0]
	moved := inc.moved[:0]
	appeared := inc.appeared[:0]
	for _, p := range objs {
		s, ok := inc.oidSlot[p.OID]
		changed := !ok || p.X != inc.idx.pos[s].X || p.Y != inc.idx.pos[s].Y
		if (ok && inc.seenTick[s] == ep) || (changed && !inc.idx.cellable(p)) {
			// Duplicate OID in one snapshot (identity diffing is ill-defined)
			// or a position the grid cannot hold. Earlier iterations already
			// mutated positions, so drop the state wholesale and answer from
			// scratch.
			inc.clearState()
			return inc.fallback(objs)
		}
		if !ok {
			s = inc.allocSlot(p)
			appeared = append(appeared, s)
		} else if changed {
			moved = append(moved, movedRec{slot: s, oldKey: inc.idx.keyOf(inc.idx.pos[s])})
			inc.idx.pos[s] = p
		}
		inc.seenTick[s] = ep
		inOrder = append(inOrder, s)
	}
	inc.inOrder, inc.moved, inc.appeared = inOrder, moved, appeared

	// Pass 2 — live slots the snapshot did not mention have disappeared.
	gone := inc.gone[:0]
	w := 0
	for _, s := range inc.alive {
		if inc.seenTick[s] == ep {
			inc.alive[w] = s
			w++
		} else {
			gone = append(gone, s)
			delete(inc.oidSlot, inc.idx.pos[s].OID)
		}
	}
	inc.alive = inc.alive[:w]
	inc.gone = gone

	if len(moved)+len(appeared)+len(gone) > 0 {
		inc.applyDeltas(ep)
	}

	out := inc.replay()

	// Free disappeared slots only now: nothing in this tick may recycle
	// them, and every list that named them was edited or replaced above.
	for _, g := range gone {
		inc.totalEdges -= len(inc.nbr[g])
		inc.nbr[g] = inc.nbr[g][:0]
		inc.freeSlots = append(inc.freeSlots, g)
	}
	if inc.totalEdges > edgeCap(len(objs)) {
		// This tick's answer is already consistent; stop carrying the cache
		// for data this dense.
		inc.clearState()
		inc.scratchTicks = scratchBackoff
	}
	return out
}

// applyDeltas patches the sorted grid, then the cache. Eps-neighbourhoods
// are symmetric — t is in s's list exactly when s is in t's — so the lists
// of unchanged objects never need a query of their own:
//
//   - a gone object is struck from the lists its own cached list names;
//   - a moved or appeared object s runs the tick's one query for it, at its
//     new position on the patched grid, and that answer is its new list. An
//     unchanged t found only in the old list loses s, one found only in the
//     new list gains s.
//
// Neighbours that are deltas themselves are left alone: a moved or appeared
// one gets its list from its own query, which sees every delta's final
// position, and a gone one's list is dropped at the end of the tick.
// Edits are swap-remove and append, so list order drifts from grid order,
// and merged-in entries follow the ones their cell already held, so order
// inside a cell drifts from slot order; expand reads lists as sets.
func (inc *Incremental) applyDeltas(ep int64) {
	// Patch the grid: schedule entry removals for disappeared slots and for
	// moved slots that changed cell, collect additions, then filter+merge —
	// O(n + d·log d) instead of a full rebuild's O(n·log n).
	adds := inc.adds[:0]
	removed := len(inc.gone)
	for _, g := range inc.gone {
		inc.rmTick[g], inc.deltaTick[g] = ep, ep
	}
	for _, m := range inc.moved {
		inc.deltaTick[m.slot] = ep
		if newKey := inc.idx.keyOf(inc.idx.pos[m.slot]); newKey != m.oldKey {
			inc.rmTick[m.slot] = ep
			adds = append(adds, entry{key: newKey, id: m.slot})
			removed++
		}
	}
	for _, s := range inc.appeared {
		inc.deltaTick[s] = ep
		adds = append(adds, entry{key: inc.idx.keyOf(inc.idx.pos[s]), id: s})
	}
	if removed > 0 || len(adds) > 0 {
		slices.SortFunc(adds, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
		out := inc.mergeBuf[:0]
		ai := 0
		for _, e := range inc.idx.entries {
			if inc.rmTick[e.id] == ep {
				continue
			}
			for ai < len(adds) && adds[ai].key < e.key {
				out = append(out, adds[ai])
				ai++
			}
			out = append(out, e)
		}
		out = append(out, adds[ai:]...)
		inc.mergeBuf = inc.idx.entries
		inc.idx.entries = out
	}
	inc.adds = adds[:0]

	for _, g := range inc.gone {
		for _, t := range inc.nbr[g] {
			if inc.deltaTick[t] != ep {
				inc.unlink(t, g)
			}
		}
	}
	spare := inc.qbuf
	for _, m := range inc.moved {
		s := m.slot
		old := inc.nbr[s]
		cur := inc.query(s, spare[:0])
		inc.stamp++
		for _, t := range old {
			inc.mark[t] = inc.stamp
		}
		for _, t := range cur {
			if inc.mark[t] == inc.stamp {
				inc.mark[t] = 0 // in both lists: nothing to edit
			} else if inc.deltaTick[t] != ep {
				inc.link(t, s)
			}
		}
		for _, t := range old {
			if inc.mark[t] == inc.stamp && inc.deltaTick[t] != ep {
				inc.unlink(t, s)
			}
		}
		inc.totalEdges += len(cur) - len(old)
		inc.nbr[s], spare = cur, old // the old list's array serves the next query
	}
	inc.qbuf = spare[:0]
	for _, s := range inc.appeared {
		inc.nbr[s] = inc.query(s, inc.nbr[s][:0])
		inc.totalEdges += len(inc.nbr[s])
		for _, t := range inc.nbr[s] {
			if inc.deltaTick[t] != ep {
				inc.link(t, s)
			}
		}
	}
	inc.stats.Recomputed += int64(len(inc.moved) + len(inc.appeared))
}

// link adds s to unchanged slot t's cached list.
func (inc *Incremental) link(t, s int32) {
	inc.nbr[t] = append(inc.nbr[t], s)
	inc.totalEdges++
	inc.stats.Patched++
}

// unlink strikes s from unchanged slot t's cached list.
func (inc *Incremental) unlink(t, s int32) {
	l := inc.nbr[t]
	for i, v := range l {
		if v == s {
			l[i] = l[len(l)-1]
			inc.nbr[t] = l[:len(l)-1]
			inc.totalEdges--
			inc.stats.Patched++
			return
		}
	}
}

// replay clusters the tick from the cached neighbourhoods. Because the
// cached sets equal what a fresh grid would answer, the result is
// byte-identical to scratch — and it costs integer work only, no distance
// computations.
func (inc *Incremental) replay() []model.ObjSet {
	return expand(inc.inOrder, inc.labels, inc.idx.pos, inc.minPts, func(s int32) []int32 { return inc.nbr[s] })
}
