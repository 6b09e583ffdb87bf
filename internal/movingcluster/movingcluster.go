// Package movingcluster implements the moving-cluster pattern of Kalnis,
// Mamoulis & Bakiras (SSTD'05), the second pattern the paper's §7 proposes
// extending k/2-hop to.
//
// A moving cluster is a sequence of snapshot clusters c_t, c_{t+1}, … whose
// consecutive Jaccard overlap |c_t ∩ c_{t+1}| / |c_t ∪ c_{t+1}| is at least
// θ. Unlike convoys and flocks, the member set may churn completely over
// the cluster's lifetime (θ < 1 lets the overlap decay to θ^h over h
// steps), so the benchmark-point pruning argument — "the same objects must
// be grouped at two consecutive benchmark points" — does not hold and a
// k/2-hop-style miner would be unsound. This package therefore provides the
// classical MC2 sweep miner only, and documents the boundary of the
// k/2-hop technique: it transfers to patterns whose member set is fixed
// over the lifetime (convoys, flocks, platoons), not to identity-churning
// patterns.
package movingcluster

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/postings"
	"repro/internal/storage"
)

// Config carries the moving-cluster parameters.
type Config struct {
	// M and Eps parameterise the per-snapshot DBSCAN.
	M   int
	Eps float64
	// Theta is the minimum Jaccard overlap between consecutive clusters, in
	// (0, 1]. Clusters that share no object never chain, whatever Theta is.
	Theta float64
	// K is the minimum lifetime in timestamps.
	K int
}

// MovingCluster is a mined pattern: the per-tick cluster sequence starting
// at Start.
type MovingCluster struct {
	Start    int32
	Clusters []model.ObjSet
}

// End returns the last timestamp of the pattern.
func (mc MovingCluster) End() int32 { return mc.Start + int32(len(mc.Clusters)) - 1 }

// Len returns the lifetime in timestamps.
func (mc MovingCluster) Len() int { return len(mc.Clusters) }

// Members returns the union of every cluster's members — the pattern's
// lifetime footprint. Unlike a convoy's object set it does not imply
// co-presence at any single tick.
func (mc MovingCluster) Members() model.ObjSet {
	var ids []int32
	for _, cl := range mc.Clusters {
		ids = append(ids, cl...)
	}
	return model.NewObjSet(ids...)
}

// Key returns a canonical identity string: the lifespan plus every per-tick
// cluster. Two moving clusters with equal keys are equal patterns, including
// their full cluster sequences (the footprint alone would collide for
// distinct chains over the same members).
func (mc MovingCluster) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:%d", mc.Start, mc.End())
	for _, cl := range mc.Clusters {
		sb.WriteByte('|')
		sb.WriteString(cl.Key())
	}
	return sb.String()
}

// Jaccard returns |a ∩ b| / |a ∪ b| (zero when both sets are empty).
func Jaccard(a, b model.ObjSet) float64 {
	return overlap(a.IntersectSize(b), len(a), len(b))
}

// overlap is the Jaccard overlap of sets of na and nb members that share
// inter of them.
func overlap(inter, na, nb int) float64 {
	union := na + nb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Mine runs the MC2-style sweep: cluster every snapshot, chain clusters
// whose consecutive overlap is ≥ θ, and emit maximal chains of length ≥ K.
// A cluster extends at most one chain and each chain extends to at most one
// cluster per tick (the best-overlap match, as in MC2) — ties break towards
// the larger overlap, then the smaller cluster order.
//
// Mine is a thin loop over the streaming Miner, so the batch sweep and the
// convoyd feed mode share one chaining code path and are byte-identical by
// construction.
func Mine(store storage.Store, cfg Config) ([]MovingCluster, error) {
	ts, te := store.TimeRange()
	if te < ts {
		return nil, nil
	}
	mn := NewMiner(cfg)
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, fmt.Errorf("movingcluster: snapshot %d: %w", t, err)
		}
		mn.Step(t, snap)
	}
	return mn.Finish(), nil
}

// chain is one still-open moving cluster candidate.
type chain struct {
	start    int32
	clusters []model.ObjSet
}

func (c *chain) last() model.ObjSet { return c.clusters[len(c.clusters)-1] }

// match is one (open chain, cluster of the tick) pair whose overlap reaches θ.
type match struct {
	chain, cluster int32
	overlap        float64
}

// Miner is the streaming moving-cluster miner fed one snapshot at a time,
// mirroring cmc.Miner's streaming surface (Step/Drain/Finish/Last/Reset).
// It carries the open chains across ticks; each Step clusters the snapshot
// and runs the same greedy best-overlap matching as Mine. Patterns are
// emitted the moment their chain fails to extend, so streaming consumers
// can poll with Drain in O(new).
//
// Matching is postings-driven: a pair with an empty intersection has overlap
// 0 < θ, so only pairs that share an object are ever scored. Each Step
// builds object → chain postings over the open chains' last clusters and
// walks every cluster's members through them, counting hits per chain —
// the hit count is the intersection size. The cost follows the members
// walked, not chains × clusters.
//
// Gaps in the timestamp sequence terminate every open chain: a chain cannot
// overlap a tick that has no clusters, which is exactly what the batch sweep
// does when the missing ticks hold no points. A Miner is not safe for
// concurrent use (convoyd's shard actors give each feed a single owner).
type Miner struct {
	cfg     Config
	active  []*chain
	out     []MovingCluster // every emitted pattern, in emission order
	fresh   int             // out[fresh:] not yet drained
	lastT   int32
	started bool

	// Per-tick matching state, reused across Steps.
	slot    map[int32]int32 // object id → dense slot among the last clusters' members
	slots   []int32         // member slots of the chains' last clusters, flattened in chain order
	byObj   postings.Lists  // slot → chains whose last cluster holds the object
	hits    []int32         // per chain: members shared with the cluster being matched
	touched []int32         // chains with hits > 0, for the cluster being matched
	matches []match
}

// NewMiner creates a streaming miner for the given parameters.
func NewMiner(cfg Config) *Miner {
	return &Miner{cfg: cfg, slot: map[int32]int32{}}
}

// Step clusters the snapshot of timestamp t and chains the clusters.
// Timestamps must be fed in strictly increasing order; feeding a timestamp
// ≤ the previous one panics (callers accepting untrusted input validate
// first, as with cmc.Miner).
func (mn *Miner) Step(t int32, snap []model.ObjPos) {
	mn.StepClusters(t, dbscan.Cluster(snap, mn.cfg.Eps, mn.cfg.M))
}

// StepClusters is Step for callers that already hold the tick's cluster set
// (the fuzz harness exercises the chaining in isolation through it).
func (mn *Miner) StepClusters(t int32, clusters []model.ObjSet) {
	if mn.started && t <= mn.lastT {
		panic(fmt.Sprintf("movingcluster: non-monotonic Step: t=%d after t=%d", t, mn.lastT))
	}
	if mn.started && t != mn.lastT+1 {
		// Discontinuity: no cluster exists at the missing ticks, so no chain
		// can span them — identical to the batch sweep seeing empty
		// snapshots there.
		mn.closeAll()
	}
	mn.started = true
	mn.lastT = t
	// Greedy best-overlap matching between active chains and clusters: best
	// overlap first, ties towards the earlier chain, then the earlier cluster.
	matches := mn.overlapping(clusters)
	slices.SortFunc(matches, func(a, b match) int {
		return cmp.Or(cmp.Compare(b.overlap, a.overlap), cmp.Compare(a.chain, b.chain), cmp.Compare(a.cluster, b.cluster))
	})
	chainTaken := make([]bool, len(mn.active))
	clusterTaken := make([]bool, len(clusters))
	var next []*chain
	for _, m := range matches {
		if chainTaken[m.chain] || clusterTaken[m.cluster] {
			continue
		}
		chainTaken[m.chain] = true
		clusterTaken[m.cluster] = true
		ch := mn.active[m.chain]
		ch.clusters = append(ch.clusters, clusters[m.cluster])
		next = append(next, ch)
	}
	// Unmatched chains terminate; unmatched clusters start fresh chains.
	for ci, ch := range mn.active {
		if !chainTaken[ci] {
			mn.emit(ch)
		}
	}
	for cj, cl := range clusters {
		if !clusterTaken[cj] {
			next = append(next, &chain{start: t, clusters: []model.ObjSet{cl}})
		}
	}
	mn.active = next
}

// overlapping returns every (chain, cluster) pair that shares an object and
// whose Jaccard overlap reaches θ, in no particular order. The slice is
// reused by the next call.
func (mn *Miner) overlapping(clusters []model.ObjSet) []match {
	clear(mn.slot)
	mn.slots = mn.slots[:0]
	for _, ch := range mn.active {
		for _, o := range ch.last() {
			s, ok := mn.slot[o]
			if !ok {
				s = int32(len(mn.slot))
				mn.slot[o] = s
			}
			mn.slots = append(mn.slots, s)
		}
	}
	mn.byObj.Build(len(mn.slot), mn.slots, len(mn.active), func(ci int) int { return len(mn.active[ci].last()) })
	mn.hits = append(mn.hits[:0], make([]int32, len(mn.active))...)

	matches, touched := mn.matches[:0], mn.touched
	for cj, cl := range clusters {
		touched = touched[:0]
		for _, o := range cl {
			if s, ok := mn.slot[o]; ok {
				for _, ci := range mn.byObj.Of(s) {
					if mn.hits[ci] == 0 {
						touched = append(touched, ci)
					}
					mn.hits[ci]++
				}
			}
		}
		for _, ci := range touched {
			ov := overlap(int(mn.hits[ci]), len(mn.active[ci].last()), len(cl))
			mn.hits[ci] = 0
			if ov >= mn.cfg.Theta {
				matches = append(matches, match{chain: ci, cluster: int32(cj), overlap: ov})
			}
		}
	}
	mn.matches, mn.touched = matches, touched
	return matches
}

func (mn *Miner) emit(c *chain) {
	if len(c.clusters) >= mn.cfg.K {
		mn.out = append(mn.out, MovingCluster{Start: c.start, Clusters: c.clusters})
	}
}

// closeAll terminates every open chain, emitting the long-enough ones.
func (mn *Miner) closeAll() {
	for _, ch := range mn.active {
		mn.emit(ch)
	}
	mn.active = nil
}

// Drain returns the patterns emitted since the last Drain, in emission
// order. Unlike cmc.Miner's result set, a moving cluster is emitted exactly
// once and never superseded, so Drain needs no external dedup.
func (mn *Miner) Drain() []MovingCluster {
	out := mn.out[mn.fresh:len(mn.out):len(mn.out)]
	mn.fresh = len(mn.out)
	return out
}

// Finish ends the stream: every open chain of sufficient length is emitted,
// and the full result set is returned in emission order — exactly what Mine
// returns over the same tick sequence.
func (mn *Miner) Finish() []MovingCluster {
	mn.closeAll()
	mn.fresh = len(mn.out)
	return mn.out
}

// Last returns the most recently stepped timestamp; ok is false before the
// first Step (and after a Reset).
func (mn *Miner) Last() (t int32, ok bool) { return mn.lastT, mn.started }

// Reset returns the miner to its initial state, keeping the parameters.
func (mn *Miner) Reset() {
	mn.active = nil
	mn.out = nil
	mn.fresh = 0
	mn.lastT = 0
	mn.started = false
}
