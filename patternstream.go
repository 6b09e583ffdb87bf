package convoy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/flock"
	"repro/internal/movingcluster"
)

// This file generalizes the streaming surface of stream.go to the pattern
// families of patterns.go: a convoyd feed can mine convoys (the default),
// flocks, or moving clusters, selected per feed by a Pattern. Each mode is
// a PatternMiner with the same contract as StreamMiner (strictly monotonic
// Observe, gap-closes-everything, duplicate-OID canonicalization), and each
// is byte-identical to its batch counterpart — MineFlocks(sweep) and
// MineMovingClusters share the exact streaming engines underneath.

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

// PatternDigest is the fixed-size identity of a closed pattern that
// publish/persist dedup runs on.
type PatternDigest [16]byte

// Digest returns the first 128 bits of SHA-256 over the pattern's canonical
// bytes: Start, End and the length-prefixed member ids as little-endian
// int32s, followed — for moving clusters — by every per-tick cluster in the
// same form, because two distinct chains can share a footprint and
// lifespan. Dedup sets hold one digest per pattern the feed ever closed, so
// they retain 16 bytes each rather than a formatted string.
func (r PatternResult) Digest() PatternDigest {
	var stack [256]byte // enough for a 60-member convoy without touching the heap
	buf := binary.LittleEndian.AppendUint32(stack[:0], uint32(r.Start))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.End))
	buf = appendObjSet(buf, r.Objs)
	for _, cl := range r.Clusters {
		buf = appendObjSet(buf, cl)
	}
	sum := sha256.Sum256(buf)
	return PatternDigest(sum[:16])
}

func appendObjSet(buf []byte, s ObjSet) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	for _, id := range s {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// PatternMiner is the streaming surface every feed mode implements —
// StreamMiner's contract, generalized over the result type. Observe rejects
// non-monotonic timestamps with an error and leaves the miner untouched; a
// gap closes every open pattern; duplicate OIDs within a snapshot are
// canonicalized (last occurrence wins). Closed drains results that closed
// since the last call in O(new); Flush ends the stream and returns the full
// final result set. Not safe for concurrent use.
type PatternMiner interface {
	Observe(t int32, positions []ObjPos) error
	Last() (t int32, ok bool)
	Closed() []PatternResult
	Flush() []PatternResult
	Reset()
}

// NewPatternMiner creates the streaming miner for one pattern family.
// PatternConvoy wraps StreamMiner (the PCCD sweep over incremental DBSCAN);
// PatternFlock runs per-tick disk groups over the same sweep engine; PatternMC chains per-tick DBSCAN clusters by Jaccard overlap.
func NewPatternMiner(pat Pattern, pp PatternParams) (PatternMiner, error) {
	pp = pp.withDefaults()
	if err := pp.validate(); err != nil {
		return nil, err
	}
	switch pat {
	case PatternConvoy:
		sm, err := NewStreamMiner(pp.Params)
		if err != nil {
			return nil, err
		}
		return &convoyStream{sm: sm}, nil
	case PatternFlock:
		return &flockStream{
			mn:     flock.NewMiner(flock.Config{M: pp.M, K: pp.K, R: pp.R}),
			dupChk: map[int32]struct{}{},
		}, nil
	case PatternMC:
		return &mcStream{
			mn:     movingcluster.NewMiner(movingcluster.Config{M: pp.M, Eps: pp.Eps, Theta: pp.Theta, K: pp.K}),
			dupChk: map[int32]struct{}{},
		}, nil
	default:
		return nil, fmt.Errorf("convoy: unknown pattern %q", pat)
	}
}

// convoyStream adapts StreamMiner to the PatternMiner surface.
type convoyStream struct {
	sm *StreamMiner
}

func (s *convoyStream) Observe(t int32, positions []ObjPos) error { return s.sm.Observe(t, positions) }
func (s *convoyStream) Last() (int32, bool)                       { return s.sm.Last() }
func (s *convoyStream) Closed() []PatternResult                   { return wrapConvoys(s.sm.Closed()) }
func (s *convoyStream) Flush() []PatternResult                    { return wrapConvoys(s.sm.Flush()) }
func (s *convoyStream) Reset()                                    { s.sm.Reset() }

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

// flockStream adapts flock.Miner. Like StreamMiner.Closed, Drain reports
// every flock exactly once.
type flockStream struct {
	mn     *flock.Miner
	dupChk map[int32]struct{}
}

func (s *flockStream) Observe(t int32, positions []ObjPos) error {
	if last, ok := s.mn.Last(); ok && t <= last {
		return fmt.Errorf("convoy: non-monotonic stream: observed t=%d after t=%d", t, last)
	}
	s.mn.Step(t, canonPositions(s.dupChk, positions))
	return nil
}

func (s *flockStream) Last() (int32, bool) { return s.mn.Last() }

func (s *flockStream) Closed() []PatternResult { return wrapConvoys(s.mn.Drain()) }
func (s *flockStream) Flush() []PatternResult  { return wrapConvoys(s.mn.Finish()) }
func (s *flockStream) Reset()                  { s.mn.Reset() }

// mcStream adapts movingcluster.Miner. A moving cluster is emitted exactly
// once and never superseded, so no dedup map is needed.
type mcStream struct {
	mn     *movingcluster.Miner
	dupChk map[int32]struct{}
}

func (s *mcStream) Observe(t int32, positions []ObjPos) error {
	if last, ok := s.mn.Last(); ok && t <= last {
		return fmt.Errorf("convoy: non-monotonic stream: observed t=%d after t=%d", t, last)
	}
	s.mn.Step(t, canonPositions(s.dupChk, positions))
	return nil
}

func (s *mcStream) Last() (int32, bool) { return s.mn.Last() }

func (s *mcStream) Closed() []PatternResult { return wrapMCs(s.mn.Drain()) }
func (s *mcStream) Flush() []PatternResult  { return wrapMCs(s.mn.Finish()) }
func (s *mcStream) Reset()                  { s.mn.Reset() }

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
