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
// Resets one miner between candidates), the flock sweep and the streaming
// convoy.PatternMiner of every convoyd convoy and flock feed.
//
// The per-tick sweep is output-sensitive: it costs what intersects, not
// alive × clusters. Each Step indexes the tick's clusters in a
// postings.Index (clusters may overlap: DBSCAN's share border points at
// m ≥ 4, and flock.DiskGroups' disks overlap), which counts the members a
// candidate shares with each cluster it touches, and domination-prunes
// through object → candidate postings over the same slots, so a candidate
// is compared only with candidates that contain one of its members. Sets
// stay sorted ObjSets throughout: with candidates of ~6 objects in a tick
// universe of ~1 600, a posting walk touches a few dozen integers where the
// interned-bitset sweep this replaced ANDed 27 words per (candidate,
// cluster) pair — 10.3 ms → 0.20 ms per Step on a 1 600-object city feed
// (BenchmarkMinerStep/moving). The same overlap join serves package core's
// candidate-cluster phase between two benchmark clusterings,
// movingcluster's chainer and dcm.Merge.
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
	alive []candidate
	// out holds every convoy closed so far, in emission order; it needs no
	// maximality filter (see Finish). out[drained:] are the ones closed
	// since the last Drain, so streaming consumers poll for novelty in
	// O(new) instead of re-deriving it from the full result set.
	out     []model.Convoy
	drained int
	lastT   int32
	started bool

	// Per-tick sweep state, reused across Steps.
	next   []candidate    // candidates of the tick being built
	byObj  postings.Index // the tick's clusters; its slots number their members
	slots  []int32        // member slots of next's candidates, flattened in next's order
	byCand postings.Lists // slot → candidates of next containing the object

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
	return &Miner{m: m, keep: keep}
}

// Step feeds the cluster set of timestamp t. Timestamps must be fed in
// strictly increasing order; feeding a timestamp ≤ the previous one is a
// contract violation and panics (the callers that accept untrusted input —
// convoy.PatternMiner and the convoyd ingest path — validate before calling).
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

	// A candidate can only continue as a subset of some cluster of t, so
	// the clusters' members are the whole live universe of the tick.
	mn.byObj.Build(len(clusters), func(j int) model.ObjSet { return clusters[j] })
	mn.next, mn.slots = mn.next[:0], mn.slots[:0]
	for _, v := range mn.alive {
		if !mn.extend(v) {
			mn.emit(model.Convoy{Objs: v.objs, Start: v.start, End: mn.lastT})
		}
	}
	// Every current cluster starts a fresh candidate (it may be dominated).
	at := int32(len(mn.slots))
	mn.slots = append(mn.slots, mn.byObj.Slots()...)
	for _, c := range clusters {
		if len(c) > 0 { // an empty set has no member to be found through
			mn.next = append(mn.next, candidate{objs: c, start: t, at: at})
			at += int32(len(c))
		}
	}
	mn.prune()
	mn.lastT = t
}

// extend carries candidate v into the current tick: for every cluster that
// holds at least m of v's members it appends the intersection to next. It
// reports whether v survived intact (some cluster holds all of it), in
// which case the continuation shares v's ObjSet; only a real shrink
// materializes a new one.
func (mn *Miner) extend(v candidate) (survived bool) {
	hits := mn.byObj.Overlaps(v.objs)
	vs := mn.byObj.QuerySlots()
	for _, h := range hits {
		n := int(h.N)
		mn.work += n // one posting entry per shared member
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
			if s >= 0 && mn.byObj.Holds(h.Set, s) {
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
	mn.byCand.Build(mn.byObj.NumSlots(), mn.slots, len(next), func(i int) int { return len(next[i].objs) })
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
	if mn.keep(c) {
		mn.out = append(mn.out, c)
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

// Finish flushes candidates still alive at the final timestamp and returns
// all mined maximal convoys in canonical order.
//
// The result list needs no maximality filter when every cluster fed to
// Step holds at least m objects (DBSCAN's and flock.DiskGroups' do). Say
// closed convoys (O', s', e') ⊆ (O, s, e). With e' = e both were alive at
// e, which is domination-free. With e' < e, O ⊇ O' sat in one cluster at
// e'+1, so (O', s') survived that tick intact instead of closing at e'.
// See docs/ARCHITECTURE.md, "Why the sweeps' result sets need no filter".
func (mn *Miner) Finish() []model.Convoy {
	mn.flushAll(mn.lastT)
	out := slices.Clone(mn.out)
	model.SortConvoys(out)
	return out
}

// Drain returns the convoys closed since the last Drain, in emission order,
// and clears the queue. A drained convoy is final: no convoy that closes
// later contains it (see Finish), so every convoy is drained exactly once
// and Finish returns the drained convoys plus the ones it closes itself.
// Cost is O(drained), independent of the accumulated result-set size —
// the property the convoyd ingest hot path relies on.
func (mn *Miner) Drain() []model.Convoy {
	out := mn.out[mn.drained:len(mn.out):len(mn.out)]
	mn.drained = len(mn.out)
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
	// Drained slices share out's array, so it is dropped, not cleared.
	mn.out, mn.drained = nil, 0
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
