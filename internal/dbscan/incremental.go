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
//   - the flat sorted (packed cell key, point slot) grid, patched by a
//     filter+merge pass instead of a full rebuild+sort;
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
// Clustering is then *replayed* over the cached neighbourhoods with
// exactly the control flow of Cluster (same seed scan in input order, same
// BFS expansion, same border-point first-reach assignment, same sub-minPts
// discard guard), which makes the output byte-identical to a from-scratch
// Cluster call on the same snapshot: neighbourhood *contents* fully
// determine Cluster's output, and the cache holds exactly the sets the
// scratch grid would compute. The order inside a list — which the in-place
// edits scramble — cannot show: a cluster is everything density-reachable
// from its seed, whichever way the frontier is walked, and is sorted before
// it is returned; clusters come out in the input order of their seeds; and
// a border point within reach of several clusters goes to the one whose
// seed comes first in input order, not to whichever list names it first.
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
	rawEps float64 // as given; used for scratch fallback calls
	eps    float64 // clamped like newGrid; used for cell math
	epsSq  float64 // rawEps², matching Cluster's distance threshold
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
	oidSlot    map[int32]int32 // OID → slot
	oids       []int32         // slot → OID
	posX       []float64       // slot → position
	posY       []float64
	nbr        [][]int32  // slot → cached eps-neighbourhood (slots, incl. self)
	alive      []int32    // live slots, arbitrary order
	freeSlots  []int32    // recyclable slots; freed at end of tick, so a slot
	entries    []incEntry // never moves between objects within one tick
	totalEdges int

	// --- per-tick scratch, reused across ticks ---------------------------
	epoch     int64
	seenTick  []int64 // slot → epoch when matched in the input pass
	deltaTick []int64 // slot → epoch when it moved, appeared or disappeared
	rmTick    []int64 // slot → epoch when its grid entry is scheduled out
	stamp     int64   // one value per moved slot, for the old-vs-new list diff
	mark      []int64 // slot → stamp while it is in the old list only
	labels    []int32 // slot → replay label (unvisited/noise/cluster id)
	inOrder   []int32 // input index → slot
	moved     []movedRec
	gone      []int32
	appeared  []int32
	adds      []incEntry
	mergeBuf  []incEntry
	qbuf      []int32
	frontier  []int32

	stats IncrementalStats
}

// incEntry locates one live slot in cell-key order (see gridEntry).
type incEntry struct {
	key  uint64
	slot int32
}

type movedRec struct {
	slot       int32
	oldX, oldY float64
}

// IncrementalStats counts what the engine did since construction (they
// survive Reset). Tests assert the delta machinery through these: a
// no-delta tick or a removal must run zero grid queries, a move exactly
// one, a fallback must be visible.
type IncrementalStats struct {
	Ticks       int64 // Step calls
	Rebuilds    int64 // full state rebuilds (first tick, post-Reset, post-fallback)
	Fallbacks   int64 // ticks answered by scratch Cluster
	GridQueries int64 // queryAt calls: one per object in a rebuild, one per moved or appeared object in a delta tick
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
	inc := &Incremental{
		rawEps:  eps,
		eps:     eps,
		epsSq:   eps * eps,
		minPts:  minPts,
		oidSlot: make(map[int32]int32),
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		inc.degenerate = true
		inc.eps = math.SmallestNonzeroFloat64
	}
	return inc, nil
}

// Stats returns the cumulative counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Reset discards all carried state and releases its memory, returning the
// engine to its initial condition (counters excepted). The next Step
// rebuilds from scratch. StreamMiner.Reset and convoyd feed eviction route
// here.
func (inc *Incremental) Reset() {
	*inc = Incremental{
		rawEps:     inc.rawEps,
		eps:        inc.eps,
		epsSq:      inc.epsSq,
		minPts:     inc.minPts,
		degenerate: inc.degenerate,
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
	return Cluster(objs, inc.rawEps, inc.minPts)
}

// cellable reports whether v lands in a cell whose coordinate fits int32.
// Beyond that the float→int32 conversion in cellOf is implementation-
// defined and the "neighbours live in the 3×3 block" invariant breaks, so
// such snapshots (astronomic coordinates, NaN, Inf) go to scratch. NaN
// fails both comparisons.
func (inc *Incremental) cellable(v float64) bool {
	c := math.Floor(v / inc.eps)
	return c >= math.MinInt32 && c <= math.MaxInt32
}

func (inc *Incremental) keyOf(x, y float64) uint64 {
	return packKey(int32(math.Floor(x/inc.eps)), int32(math.Floor(y/inc.eps)))
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
	inc.oids = inc.oids[:0]
	inc.posX = inc.posX[:0]
	inc.posY = inc.posY[:0]
	inc.alive = inc.alive[:0]
	inc.freeSlots = inc.freeSlots[:0]
	inc.entries = inc.entries[:0]
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
func (inc *Incremental) allocSlot(oid int32, x, y float64) int32 {
	var s int32
	if k := len(inc.freeSlots); k > 0 {
		s = inc.freeSlots[k-1]
		inc.freeSlots = inc.freeSlots[:k-1]
		inc.oids[s], inc.posX[s], inc.posY[s] = oid, x, y
		inc.nbr[s] = inc.nbr[s][:0]
	} else {
		s = int32(len(inc.oids))
		inc.oids = append(inc.oids, oid)
		inc.posX = append(inc.posX, x)
		inc.posY = append(inc.posY, y)
		inc.nbr = append(inc.nbr, nil)
		inc.seenTick = append(inc.seenTick, 0)
		inc.deltaTick = append(inc.deltaTick, 0)
		inc.mark = append(inc.mark, 0)
		inc.rmTick = append(inc.rmTick, 0)
		inc.labels = append(inc.labels, 0)
	}
	inc.oidSlot[oid] = s
	inc.alive = append(inc.alive, s)
	return s
}

// queryAt returns the slots of all live points within eps of (x, y),
// mirroring grid.neighbors: 3 binary searches plus 3 linear scans over the
// sorted entries, with the same int32-extreme clamping and the same
// model.DistSq comparison so float behaviour is bit-identical to scratch.
func (inc *Incremental) queryAt(x, y float64, dst []int32) []int32 {
	inc.stats.GridQueries++
	p := model.ObjPos{X: x, Y: y}
	cx := int32(math.Floor(x / inc.eps))
	cy := int32(math.Floor(y / inc.eps))
	cyLo, cyHi := cy-1, cy+1
	if cy == math.MinInt32 {
		cyLo = cy
	}
	if cy == math.MaxInt32 {
		cyHi = cy
	}
	e := inc.entries
	for dx := int32(-1); dx <= 1; dx++ {
		if (dx < 0 && cx == math.MinInt32) || (dx > 0 && cx == math.MaxInt32) {
			continue
		}
		lo := packKey(cx+dx, cyLo)
		hi := packKey(cx+dx, cyHi)
		a, b := 0, len(e)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if e[mid].key < lo {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for ; a < len(e) && e[a].key <= hi; a++ {
			s := e[a].slot
			if model.DistSq(p, model.ObjPos{X: inc.posX[s], Y: inc.posY[s]}) <= inc.epsSq {
				dst = append(dst, s)
			}
		}
	}
	return dst
}

// rebuild constructs the full state from one snapshot: every slot, the
// sorted grid, every neighbourhood. Costs one scratch clustering plus the
// cache fill; subsequent ticks amortise it.
func (inc *Incremental) rebuild(objs []model.ObjPos) []model.ObjSet {
	inc.stats.Rebuilds++
	inc.clearState()
	inc.epoch++
	ep := inc.epoch
	inOrder := inc.inOrder[:0]
	for _, p := range objs {
		if _, dup := inc.oidSlot[p.OID]; dup || !inc.cellable(p.X) || !inc.cellable(p.Y) {
			inc.inOrder = inOrder[:0]
			inc.clearState()
			return inc.fallback(objs)
		}
		s := inc.allocSlot(p.OID, p.X, p.Y)
		inc.seenTick[s] = ep
		inc.labels[s] = unvisited
		inOrder = append(inOrder, s)
	}
	inc.inOrder = inOrder
	es := inc.entries[:0]
	for _, s := range inOrder {
		es = append(es, incEntry{key: inc.keyOf(inc.posX[s], inc.posY[s]), slot: s})
	}
	slices.SortFunc(es, func(a, b incEntry) int { return cmp.Compare(a.key, b.key) })
	inc.entries = es
	cap := edgeCap(len(objs))
	for _, s := range inOrder {
		inc.nbr[s] = inc.queryAt(inc.posX[s], inc.posY[s], inc.nbr[s][:0])
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
		if ok && inc.seenTick[s] == ep {
			// Duplicate OID in one snapshot: identity diffing is ill-defined
			// and earlier iterations already mutated positions, so drop the
			// state wholesale and answer from scratch.
			inc.inOrder = inOrder[:0]
			inc.moved, inc.appeared = moved[:0], appeared[:0]
			inc.clearState()
			return inc.fallback(objs)
		}
		if ok {
			if p.X != inc.posX[s] || p.Y != inc.posY[s] {
				if !inc.cellable(p.X) || !inc.cellable(p.Y) {
					inc.inOrder = inOrder[:0]
					inc.moved, inc.appeared = moved[:0], appeared[:0]
					inc.clearState()
					return inc.fallback(objs)
				}
				moved = append(moved, movedRec{slot: s, oldX: inc.posX[s], oldY: inc.posY[s]})
				inc.posX[s], inc.posY[s] = p.X, p.Y
			}
		} else {
			if !inc.cellable(p.X) || !inc.cellable(p.Y) {
				inc.inOrder = inOrder[:0]
				inc.moved, inc.appeared = moved[:0], appeared[:0]
				inc.clearState()
				return inc.fallback(objs)
			}
			s = inc.allocSlot(p.OID, p.X, p.Y)
			appeared = append(appeared, s)
		}
		inc.seenTick[s] = ep
		inc.labels[s] = unvisited
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
			delete(inc.oidSlot, inc.oids[s])
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
// Edits are swap-remove and append, so list order drifts from grid order;
// replay reads lists as sets (see Incremental).
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
		oldKey := inc.keyOf(m.oldX, m.oldY)
		newKey := inc.keyOf(inc.posX[m.slot], inc.posY[m.slot])
		if oldKey != newKey {
			inc.rmTick[m.slot] = ep
			adds = append(adds, incEntry{key: newKey, slot: m.slot})
			removed++
		}
	}
	for _, s := range inc.appeared {
		inc.deltaTick[s] = ep
		adds = append(adds, incEntry{key: inc.keyOf(inc.posX[s], inc.posY[s]), slot: s})
	}
	if removed > 0 || len(adds) > 0 {
		slices.SortFunc(adds, func(a, b incEntry) int { return cmp.Compare(a.key, b.key) })
		out := inc.mergeBuf[:0]
		ai := 0
		for _, e := range inc.entries {
			if inc.rmTick[e.slot] == ep {
				continue
			}
			for ai < len(adds) && adds[ai].key < e.key {
				out = append(out, adds[ai])
				ai++
			}
			out = append(out, e)
		}
		out = append(out, adds[ai:]...)
		inc.mergeBuf = inc.entries
		inc.entries = out
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
		cur := inc.queryAt(inc.posX[s], inc.posY[s], spare[:0])
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
		inc.nbr[s] = inc.queryAt(inc.posX[s], inc.posY[s], inc.nbr[s][:0])
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

// replay runs Cluster's exact control flow over the cached neighbourhoods:
// seed scan in input order, BFS expansion through core points, first-reach
// border assignment, sub-minPts discard. Because the cached sets equal what
// a fresh grid would answer, the result is byte-identical to scratch — and
// it costs integer work only, no distance computations.
func (inc *Incremental) replay() []model.ObjSet {
	n := len(inc.inOrder)
	if n == 0 || n < inc.minPts {
		return nil
	}
	var clusters []model.ObjSet
	frontier := inc.frontier[:0]
	for _, s := range inc.inOrder {
		if inc.labels[s] != unvisited {
			continue
		}
		if len(inc.nbr[s]) < inc.minPts {
			inc.labels[s] = noise
			continue
		}
		cid := int32(len(clusters))
		inc.labels[s] = cid
		cluster := model.ObjSet{inc.oids[s]}
		frontier = frontier[:0]
		for _, j := range inc.nbr[s] {
			if j != s {
				frontier = append(frontier, j)
			}
		}
		for len(frontier) > 0 {
			j := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			switch inc.labels[j] {
			case unvisited:
				inc.labels[j] = cid
				cluster = append(cluster, inc.oids[j])
				if nb := inc.nbr[j]; len(nb) >= inc.minPts {
					for _, q := range nb {
						if inc.labels[q] == unvisited || inc.labels[q] == noise {
							frontier = append(frontier, q)
						}
					}
				}
			case noise:
				inc.labels[j] = cid
				cluster = append(cluster, inc.oids[j])
			}
		}
		if len(cluster) >= inc.minPts {
			slices.Sort(cluster)
			for k := 1; k < len(cluster); k++ {
				if cluster[k] == cluster[k-1] {
					cluster = slices.Compact(cluster)
					break
				}
			}
			clusters = append(clusters, cluster)
		} else {
			for _, s2 := range inc.inOrder {
				if inc.labels[s2] == cid {
					inc.labels[s2] = noise
				}
			}
		}
	}
	inc.frontier = frontier[:0]
	return clusters
}
