// Package cmc implements the snapshot-sweep convoy miner that underlies the
// sequential baselines: CMC (Jeung et al., PVLDB'08) in the corrected form
// PCCD (Partially Connected Convoy Discovery, Yoon & Shahabi, ICDMW'09).
//
// The miner sweeps timestamps in order, clustering every snapshot and
// intersecting each alive candidate convoy with the clusters of the current
// timestamp. A candidate that cannot continue intact is emitted when it is
// long enough. Candidate sets are kept maximal by domination pruning: a
// candidate (O₁, s₁) is dropped when another candidate (O₂, s₂) with
// O₁ ⊆ O₂ and s₂ ≤ s₁ exists, because every convoy reachable from the
// former is a sub-convoy of one reachable from the latter.
//
// The output is the set of maximal partially connected convoys — objects may
// be density-connected through objects outside the convoy. Full-connectivity
// validation (package vcoda) turns these into FC convoys.
package cmc

import (
	"fmt"
	"slices"

	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/storage"
)

// Miner is a streaming PCCD miner fed one clustered snapshot at a time.
// It is the building block shared by the sequential baseline, the DCM
// partition workers, full-connectivity validation (vcoda.Validate, which
// Resets one miner between candidates), the flock sweep and the
// streaming front-ends (StreamMiner, and through it every convoyd shard).
//
// The per-tick sweep is output-sensitive: it costs what intersects, not
// alive × clusters. Each Step builds object → cluster postings over the
// tick's members (clusters may overlap — flock.DiskGroups feeds this miner
// too), finds a candidate's intersecting clusters by walking its members
// and counting hits per cluster, and domination-prunes through object →
// candidate postings, so a candidate is compared only with candidates that
// contain one of its members. Sets stay sorted ObjSets throughout: with
// candidates of ~6 objects in a tick universe of ~1 600, a posting walk
// touches a few dozen integers where the interned-bitset sweep this
// replaced ANDed 27 words per (candidate, cluster) pair — 10.3 ms → 0.20 ms
// per Step on a 1 600-object city feed (BenchmarkMinerStep/moving). Package
// core's candidate-cluster phase runs the same sweep between two benchmark
// clusterings.
//
// Order is deterministic. alive holds the candidates that survived the
// previous Step in their previous relative order (a candidate split over
// several clusters contributes one candidate per cluster, in cluster
// order), followed by the clusters of the latest tick that no survivor
// dominates, in cluster order. Convoys close — and Drain reports them — in
// alive order.
//
// All per-tick buffers live on the miner, so a long-lived stream reaches a
// steady state where a Step allocates only the ObjSets of candidates that
// shrank.
type Miner struct {
	m    int
	keep func(model.Convoy) bool
	// alive candidates; invariant: no candidate dominates another.
	alive  []candidate
	closed closedSet
	// fresh queues convoys accepted into the closed set since the last
	// Drain, in emission order. This lets streaming consumers poll for
	// novelty in O(new) instead of re-deriving it from the full result set.
	fresh   []model.Convoy
	lastT   int32
	started bool

	// Per-tick sweep state, reused across Steps.
	next    []candidate     // candidates of the tick being built
	slot    map[int32]int32 // object id → dense slot among the tick's cluster members
	clSlots []int32         // member slots of the tick's clusters, flattened in cluster order
	slots   []int32         // member slots of next's candidates, flattened in next's order
	byObj   postings.Lists  // slot → clusters containing the object
	byCand  postings.Lists  // slot → candidates of next containing the object
	hits    []int32         // per cluster: members of the candidate being extended
	touched []int32         // clusters with hits > 0, for the candidate being extended
	vSlots  []int32         // slots of the candidate being extended (-1: in no cluster)

	// work counts posting entries visited and set comparisons made, so tests
	// can pin that a Step's cost follows what intersects rather than the
	// number of candidates, clusters or convoys closed so far.
	work int
}

type candidate struct {
	objs  model.ObjSet
	start int32
	// at is where the members' slots start in Miner.slots. It is only valid
	// inside the Step that created the candidate; the next Step looks the
	// members up again under its own tick's slots.
	at int32
}

// NewMiner creates a miner for (m,eps)-convoys of length ≥ k. Clustering
// happens outside (callers pass cluster sets to Step), so eps is implicit.
func NewMiner(m, k int) *Miner {
	return NewMinerKeep(m, func(c model.Convoy) bool { return c.Len() >= k })
}

// NewMinerKeep creates a miner with a custom output filter, used by DCM
// partitions that must also keep short convoys touching partition borders.
func NewMinerKeep(m int, keep func(model.Convoy) bool) *Miner {
	return &Miner{m: m, keep: keep, slot: map[int32]int32{}}
}

// Step feeds the cluster set of timestamp t. Timestamps must be fed in
// strictly increasing order; feeding a timestamp ≤ the previous one is a
// contract violation and panics (the callers that accept untrusted input —
// StreamMiner and the convoyd ingest path — validate before calling).
//
// The order may have gaps: a gap kills all candidates (an object cannot be
// "together" at a missing tick), so every candidate alive before the gap is
// closed at the last pre-gap timestamp and mining restarts fresh at t.
func (mn *Miner) Step(t int32, clusters []model.ObjSet) {
	if mn.started && t <= mn.lastT {
		panic(fmt.Sprintf("cmc: non-monotonic Step: t=%d after t=%d", t, mn.lastT))
	}
	if mn.started && t != mn.lastT+1 {
		// Discontinuity: candidates cannot span the gap.
		mn.flushAll(mn.lastT)
	}
	mn.started = true

	mn.indexClusters(clusters)
	mn.next, mn.slots = mn.next[:0], mn.slots[:0]
	for _, v := range mn.alive {
		if !mn.extend(v) {
			mn.emit(model.Convoy{Objs: v.objs, Start: v.start, End: mn.lastT})
		}
	}
	// Every current cluster starts a fresh candidate (it may be dominated).
	at := int32(len(mn.slots))
	mn.slots = append(mn.slots, mn.clSlots...)
	for _, c := range clusters {
		if len(c) > 0 { // an empty set has no member to be found through
			mn.next = append(mn.next, candidate{objs: c, start: t, at: at})
			at += int32(len(c))
		}
	}
	mn.prune()
	mn.lastT = t
}

// indexClusters assigns every member of the tick's clusters a dense slot and
// builds the slot → cluster postings. A candidate can only continue as a
// subset of some cluster of t, so these slots are the whole live universe
// of the tick.
func (mn *Miner) indexClusters(clusters []model.ObjSet) {
	clear(mn.slot)
	mn.clSlots = mn.clSlots[:0]
	for _, c := range clusters {
		for _, o := range c {
			s, ok := mn.slot[o]
			if !ok {
				s = int32(len(mn.slot))
				mn.slot[o] = s
			}
			mn.clSlots = append(mn.clSlots, s)
		}
	}
	mn.byObj.Build(len(mn.slot), mn.clSlots, len(clusters), func(j int) int { return len(clusters[j]) })
	mn.hits = append(mn.hits[:0], make([]int32, len(clusters))...)
}

// extend carries candidate v into the current tick: for every cluster that
// holds at least m of v's members it appends the intersection to next. It
// reports whether v survived intact (some cluster holds all of it), in
// which case the continuation shares v's ObjSet; only a real shrink
// materializes a new one.
func (mn *Miner) extend(v candidate) (survived bool) {
	vs, touched := mn.vSlots[:0], mn.touched[:0]
	for _, o := range v.objs {
		s, ok := mn.slot[o]
		if !ok {
			s = -1
		} else {
			for _, j := range mn.byObj.Of(s) {
				if mn.hits[j] == 0 {
					touched = append(touched, j)
				}
				mn.hits[j]++
			}
			mn.work += len(mn.byObj.Of(s))
		}
		vs = append(vs, s)
	}
	mn.vSlots, mn.touched = vs, touched
	slices.Sort(touched) // cluster order, whichever member was hit first
	for _, j := range touched {
		n := int(mn.hits[j])
		mn.hits[j] = 0
		if n < mn.m {
			continue
		}
		at := int32(len(mn.slots))
		if n == len(v.objs) {
			survived = true
			mn.slots = append(mn.slots, vs...)
			mn.next = append(mn.next, candidate{objs: v.objs, start: v.start, at: at})
			continue
		}
		objs := make(model.ObjSet, 0, n)
		for i, s := range vs {
			if s >= 0 && slices.Contains(mn.byObj.Of(s), j) {
				objs = append(objs, v.objs[i])
				mn.slots = append(mn.slots, s)
			}
		}
		mn.next = append(mn.next, candidate{objs: objs, start: v.start, at: at})
	}
	return survived
}

// prune replaces alive with the candidates of next that no other candidate
// dominates, in next's order; of several equal candidates the first stays.
// A candidate that dominates c contains every member of c, so it is among
// the candidates listed under c's rarest member: only those are compared.
func (mn *Miner) prune() {
	next := mn.next
	mn.byCand.Build(len(mn.slot), mn.slots, len(next), func(i int) int { return len(next[i].objs) })
	old := mn.alive
	out := old[:0]
	for i, c := range next {
		if !mn.dominated(i, c) {
			out = append(out, c)
		}
	}
	if len(out) < len(old) {
		clear(old[len(out):]) // drop the references of candidates that died
	}
	clear(next)
	mn.alive = out
}

// dominated reports whether some other candidate of next dominates next[i].
func (mn *Miner) dominated(i int, c candidate) bool {
	rarest := mn.byCand.Of(mn.slots[c.at])
	for _, s := range mn.slots[c.at+1 : int(c.at)+len(c.objs)] {
		if l := mn.byCand.Of(s); len(l) < len(rarest) {
			rarest = l
		}
	}
	for _, d := range rarest {
		dc := mn.next[d]
		if int(d) == i || dc.start > c.start || len(dc.objs) < len(c.objs) {
			continue
		}
		if len(dc.objs) == len(c.objs) && dc.start == c.start && int(d) > i {
			continue // at most c's duplicate, and the first of equals stays
		}
		mn.work++
		if c.objs.SubsetOf(dc.objs) {
			return true
		}
	}
	return false
}

func (mn *Miner) emit(c model.Convoy) {
	if mn.keep(c) && mn.closed.add(c) {
		mn.fresh = append(mn.fresh, c)
	}
}

// flushAll closes every alive candidate at endT.
func (mn *Miner) flushAll(endT int32) {
	for _, v := range mn.alive {
		mn.emit(model.Convoy{Objs: v.objs, Start: v.start, End: endT})
	}
	clear(mn.alive)
	mn.alive = mn.alive[:0]
}

// closedSet is the miner's result set: every convoy closed so far, maximal
// under the sub-convoy order, in emission order.
//
// A convoy closing with End = e can only dominate, or be dominated by,
// closed convoys with the same End. Ends arrive in non-decreasing order, so
// an earlier convoy (O', s', e') has e' ≤ e and cannot contain one ending
// later. Nor can the new convoy (O, s, e) contain it when e' < e: O sat
// inside one cluster at e'+1, so O' ⊆ O did too, and the candidate (O', s')
// would have survived tick e'+1 intact instead of closing at e'. The
// maximality filter therefore runs within the trailing run of equal Ends
// only, and an add costs the convoys closed at that tick, not the feed's
// lifetime.
type closedSet struct {
	items []model.Convoy
	group int // items[group:] are the convoys whose End equals the latest End
	// compares counts sub-convoy tests, for the same purpose as Miner.work.
	compares int
}

// add inserts v, which must not end before any convoy already in the set,
// and reports whether it was accepted (false when v is a sub-convoy of a
// member). Members that are sub-convoys of v are dropped.
func (s *closedSet) add(v model.Convoy) bool {
	if n := len(s.items); n > 0 && s.items[n-1].End != v.End {
		s.group = n
	}
	grp := s.items[s.group:]
	keep := grp[:0]
	for _, w := range grp {
		s.compares++
		if v.SubConvoyOf(w) {
			// Members are mutually maximal, so nothing was dropped before
			// reaching w (it would be a sub-convoy of w too).
			return false
		}
		if !w.SubConvoyOf(v) {
			keep = append(keep, w)
		}
	}
	s.items = append(s.items[:s.group+len(keep)], v)
	return true
}

// sorted returns the set in canonical order.
func (s *closedSet) sorted() []model.Convoy {
	out := slices.Clone(s.items)
	model.SortConvoys(out)
	return out
}

// Finish flushes candidates still alive at the final timestamp and returns
// all mined maximal convoys in canonical order.
func (mn *Miner) Finish() []model.Convoy {
	mn.flushAll(mn.lastT)
	return mn.closed.sorted()
}

// Drain returns the convoys accepted into the result set since the last
// Drain, in emission order, and clears the queue. A drained convoy is final:
// no convoy that closes later contains it (see closedSet), so every convoy
// is drained exactly once and Finish returns the drained convoys plus the
// ones it closes itself. Cost is O(drained), independent of the accumulated
// result-set size — the property the convoyd ingest hot path relies on.
func (mn *Miner) Drain() []model.Convoy {
	out := mn.fresh
	mn.fresh = nil
	return out
}

// Last returns the most recently stepped timestamp; ok is false before the
// first Step (and after a Reset).
func (mn *Miner) Last() (t int32, ok bool) { return mn.lastT, mn.started }

// Reset returns the miner to its initial state: no alive candidates, no
// results, no timestamp history. The parameters are kept, so a reset miner
// can be reused for a fresh stream instead of allocating a new one.
func (mn *Miner) Reset() {
	clear(mn.alive)
	mn.alive = mn.alive[:0]
	mn.closed = closedSet{}
	mn.fresh = nil
	mn.lastT = 0
	mn.started = false
}

// Mine runs PCCD over every snapshot of the store: the paper's sequential
// baseline access pattern (cluster all the data at every timestamp).
func Mine(store storage.Store, m, k int, eps float64) ([]model.Convoy, error) {
	ts, te := store.TimeRange()
	mn := NewMiner(m, k)
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, fmt.Errorf("cmc: snapshot %d: %w", t, err)
		}
		mn.Step(t, dbscan.Cluster(snap, eps, m))
	}
	return mn.Finish(), nil
}
