package convoy

import (
	"fmt"
	"slices"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/flock"
	"repro/internal/model"
	"repro/internal/movingcluster"
)

// This file is the streaming surface: a convoyd feed mines convoys (the
// default), flocks, or moving clusters, selected per feed by a Pattern,
// through one PatternMiner whose results are byte-identical to the batch
// counterpart — Mine with PCCD, MineFlocks(sweep) and MineMovingClusters
// run the same sweep engines underneath.

// Pattern selects the movement-pattern family a streaming feed is mined
// with. The zero value is not valid; use DefaultPattern / ParsePattern.
type Pattern string

// The pattern families servable per feed. PatternMC follows the classical
// MC2 chaining; note it is the one family the k/2-hop technique does NOT
// transfer to (identity churn — see package movingcluster), which is why
// the streaming miner is the only online option for it.
const (
	PatternConvoy Pattern = "convoy"
	PatternFlock  Pattern = "flock"
	PatternMC     Pattern = "mc"
)

// DefaultPattern is what a feed mines when no pattern was negotiated.
const DefaultPattern = PatternConvoy

// ParsePattern validates a pattern name from an API surface. The empty
// string means "unspecified" and maps to DefaultPattern.
func ParsePattern(s string) (Pattern, error) {
	switch Pattern(s) {
	case "":
		return DefaultPattern, nil
	case PatternConvoy, PatternFlock, PatternMC:
		return Pattern(s), nil
	default:
		return "", fmt.Errorf("convoy: unknown pattern %q (want %q, %q or %q)",
			s, PatternConvoy, PatternFlock, PatternMC)
	}
}

// PatternParams bundles the parameters of every pattern family: the convoy
// Params (M, K, Eps) are shared — flock reuses M and K with disk radius R,
// moving clusters reuse M, K and Eps with Jaccard threshold Theta. Zero R
// defaults to Eps; zero Theta defaults to 0.5 (the θ the MC2 literature
// evaluates at).
type PatternParams struct {
	Params
	// R is the flock disk radius (PatternFlock only).
	R float64
	// Theta is the minimum consecutive Jaccard overlap (PatternMC only),
	// in (0, 1].
	Theta float64
}

func (pp PatternParams) withDefaults() PatternParams {
	if pp.R == 0 {
		pp.R = pp.Eps
	}
	if pp.Theta == 0 {
		pp.Theta = 0.5
	}
	return pp
}

func (pp PatternParams) validate() error {
	if err := pp.Params.validate(); err != nil {
		return err
	}
	if !(pp.R > 0) {
		return fmt.Errorf("convoy: flock radius R must be > 0, got %g", pp.R)
	}
	if !(pp.Theta > 0 && pp.Theta <= 1) {
		return fmt.Errorf("convoy: Theta must be in (0, 1], got %g", pp.Theta)
	}
	return nil
}

// PatternResult is one closed pattern of any family. For convoys and flocks
// it is exactly the Convoy (Clusters is nil). For moving clusters, Convoy
// carries the lifetime footprint — Objs is the union of every per-tick
// cluster over [Start, End] — and Clusters holds the per-tick cluster
// sequence itself (Clusters[i] is the cluster at Start+i), which is the
// pattern's real identity.
type PatternResult struct {
	Convoy
	Clusters []ObjSet
}

// PatternMiner mines one pattern family incrementally from a live feed of
// snapshots: positions arrive one timestamp at a time, and each pattern is
// reported as soon as it closes. Each tick is grouped from scratch —
// dbscan.Cluster for convoys and moving clusters, flock.DiskGroups for
// flocks; no grouping state carries over — and the groups go to one sweep:
// the PCCD engine cmc.Miner for convoys and flocks, the MC2 chainer
// movingcluster.Miner for moving clusters. A tick therefore costs one
// grouping of its snapshot plus a sweep step that follows the groups'
// members, not the number of patterns closed so far (see
// docs/ARCHITECTURE.md "Why the live path clusters from scratch"). This
// serves the streaming-companion use cases the paper's related work
// discusses (Tang et al., ICDE'12), where the data never rests in a store.
//
// Note the pattern class: a streaming miner cannot validate full
// connectivity retroactively without storing history, so convoys are
// partially connected (like CMC/PCCD). Run the k/2-hop batch miner over
// persisted history for FC results.
//
// A PatternMiner is not safe for concurrent use; the convoyd server gives
// each feed a single owning shard actor for exactly this reason, which is
// also what lets the sweeps keep their per-tick buffers on the miner.
type PatternMiner struct {
	group  func([]ObjPos) []ObjSet // a tick's groups
	sweep  *cmc.Miner              // convoys and flocks; nil for moving clusters
	chains *movingcluster.Miner    // moving clusters; nil otherwise
	dupChk map[int32]struct{}      // reused per Observe for duplicate-OID detection
}

// NewPatternMiner creates the streaming miner for one pattern family.
func NewPatternMiner(pat Pattern, pp PatternParams) (*PatternMiner, error) {
	pp = pp.withDefaults()
	if err := pp.validate(); err != nil {
		return nil, err
	}
	pm := &PatternMiner{
		group:  func(snap []ObjPos) []ObjSet { return dbscan.Cluster(snap, pp.Eps, pp.M) },
		dupChk: map[int32]struct{}{},
	}
	switch pat {
	case PatternConvoy:
		pm.sweep = cmc.NewMiner(pp.M, pp.K)
	case PatternFlock:
		pm.group = func(snap []ObjPos) []ObjSet { return flock.DiskGroups(snap, pp.R, pp.M) }
		pm.sweep = cmc.NewMiner(pp.M, pp.K)
	case PatternMC:
		pm.chains = movingcluster.NewMiner(movingcluster.Config{M: pp.M, Eps: pp.Eps, Theta: pp.Theta, K: pp.K})
	default:
		return nil, fmt.Errorf("convoy: unknown pattern %q", pat)
	}
	return pm, nil
}

// ObjPos is an object's position within one snapshot.
type ObjPos = model.ObjPos

// Observe ingests the positions of one timestamp. Timestamps must arrive in
// strictly increasing order; an out-of-order or duplicate timestamp is
// rejected with an error and leaves the miner untouched. The order may have
// gaps: a gap closes every open pattern (objects cannot be "together" at a
// missing tick), so mining restarts fresh at t.
//
// A snapshot containing the same OID more than once is canonicalized
// exactly as model.NewDataset canonicalizes a tick — stable-sorted by OID,
// keeping the last occurrence of each duplicate — so streaming a feed with
// duplicate fixes yields byte-identical patterns to batch-mining the same
// records. Duplicate-free snapshots pass through untouched, in their given
// order. The input slice is never modified.
func (pm *PatternMiner) Observe(t int32, positions []ObjPos) error {
	last, ok := pm.sweepLast()
	if ok && t <= last {
		return fmt.Errorf("convoy: non-monotonic stream: observed t=%d after t=%d", t, last)
	}
	groups := pm.group(canonPositions(pm.dupChk, positions))
	if pm.chains != nil {
		pm.chains.StepClusters(t, groups)
	} else {
		pm.sweep.Step(t, groups)
	}
	return nil
}

// sweepLast is the sweep's most recently stepped timestamp; ok is false
// before the first Observe.
func (pm *PatternMiner) sweepLast() (t int32, ok bool) {
	if pm.chains != nil {
		return pm.chains.Last()
	}
	return pm.sweep.Last()
}

// canonPositions applies the duplicate-OID rule of Observe: duplicate OIDs
// are canonicalized by model.CanonSnapshot, exactly as model.NewDataset
// canonicalizes a tick. A snapshot whose OIDs already ascend — every tick
// convoyd's reorder buffer releases — is recognised in one linear pass; any
// other duplicate-free snapshot costs one pass over dupChk, a caller-owned
// scratch map cleared here. Neither allocates, and the input is never
// modified.
func canonPositions(dupChk map[int32]struct{}, positions []ObjPos) []ObjPos {
	if model.IsCanonSnapshot(positions) {
		return positions
	}
	clear(dupChk)
	for _, p := range positions {
		if _, ok := dupChk[p.OID]; ok {
			return model.CanonSnapshot(slices.Clone(positions))
		}
		dupChk[p.OID] = struct{}{}
	}
	return positions
}

// Closed drains the patterns that have closed since the last call, in the
// order they closed, including those a Flush closed. Every pattern is
// reported exactly once: each sweep closes a pattern once, and a pattern
// is final as it closes — none closed later covers it (see cmc.Miner.Finish;
// a moving cluster is never superseded). Cost is proportional to the newly
// closed patterns, not the accumulated result set, so polling after every
// batch stays cheap on long-lived streams.
func (pm *PatternMiner) Closed() []PatternResult {
	if pm.chains != nil {
		return wrapMCs(pm.chains.Drain())
	}
	return wrapConvoys(pm.sweep.Drain())
}

// Flush ends the stream: every still-open pattern of sufficient length is
// closed at the last observed timestamp, and the full result set is
// returned — convoys and flocks in canonical order, moving clusters in
// emission order, each exactly what the batch miner returns over the same
// records. The patterns the flush itself closes stay queued for Closed.
func (pm *PatternMiner) Flush() []PatternResult {
	if pm.chains != nil {
		return wrapMCs(pm.chains.Finish())
	}
	return wrapConvoys(pm.sweep.Finish())
}

func wrapConvoys(cs []Convoy) []PatternResult {
	if len(cs) == 0 {
		return nil
	}
	out := make([]PatternResult, len(cs))
	for i, c := range cs {
		out[i] = PatternResult{Convoy: c}
	}
	return out
}

func wrapMCs(mcs []MovingCluster) []PatternResult {
	if len(mcs) == 0 {
		return nil
	}
	out := make([]PatternResult, len(mcs))
	for i, mc := range mcs {
		out[i] = PatternResult{
			Convoy:   Convoy{Objs: mc.Members(), Start: mc.Start, End: mc.End()},
			Clusters: mc.Clusters,
		}
	}
	return out
}
