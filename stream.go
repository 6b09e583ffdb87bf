package convoy

import (
	"fmt"
	"slices"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/model"
)

// StreamMiner mines convoys incrementally from a live feed of snapshots:
// positions arrive one timestamp at a time, and maximal partially connected
// convoys are reported as soon as they close (their group disperses). This
// wraps the PCCD sweep engine, which is inherently one-pass — useful for
// the streaming-companion use cases the paper's related work discusses
// (Tang et al., ICDE'12), where the data never rests in a store.
//
// Note the pattern class: a streaming miner cannot validate full
// connectivity retroactively without storing history; Closed() therefore
// reports partially connected convoys (like CMC/PCCD). Run the k/2-hop
// batch miner over persisted history for FC results.
//
// A StreamMiner is not safe for concurrent use; the convoyd server gives
// each feed a single owning shard actor for exactly this reason. That
// single-owner rule is also what lets the sweep engine keep per-miner
// posting buffers (cmc.Miner indexes each tick's clusters by object and
// visits only the candidates and clusters that share a member). Each tick
// is clustered from scratch by dbscan.Cluster; no clustering state carries
// over, so a tick costs one clustering of its snapshot plus a sweep step
// that follows the clusters' members — not the number of convoys closed so
// far (see docs/ARCHITECTURE.md "Why the live path clusters from scratch").
type StreamMiner struct {
	params Params
	miner  *cmc.Miner
	dupChk map[int32]struct{} // reused per Observe for duplicate-OID detection
}

// NewStreamMiner creates a streaming miner for the given parameters.
func NewStreamMiner(p Params) (*StreamMiner, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &StreamMiner{
		params: p,
		miner:  cmc.NewMiner(p.M, p.K),
		dupChk: map[int32]struct{}{},
	}, nil
}

// Observe ingests the positions of one timestamp. Timestamps must arrive in
// strictly increasing order; an out-of-order or duplicate timestamp is
// rejected with an error and leaves the miner untouched. The order may have
// gaps: a gap closes all open convoys (objects cannot be "together" at a
// missing tick), so mining restarts fresh at t.
//
// A snapshot containing the same OID more than once is canonicalized
// exactly as model.NewDataset canonicalizes a tick — stable-sorted by OID,
// keeping the last occurrence of each duplicate — so streaming a feed with
// duplicate fixes yields byte-identical convoys to batch-mining the same
// records. Duplicate-free snapshots pass through untouched, in their given
// order. The input slice is never modified.
func (s *StreamMiner) Observe(t int32, positions []ObjPos) error {
	if last, ok := s.miner.Last(); ok && t <= last {
		return fmt.Errorf("convoy: non-monotonic stream: observed t=%d after t=%d", t, last)
	}
	s.miner.Step(t, dbscan.Cluster(s.resolveDuplicates(positions), s.params.Eps, s.params.M))
	return nil
}

// resolveDuplicates applies the duplicate-OID rule documented on Observe.
func (s *StreamMiner) resolveDuplicates(positions []ObjPos) []ObjPos {
	return canonPositions(s.dupChk, positions)
}

// canonPositions applies the duplicate-OID rule every streaming pattern
// miner shares (see StreamMiner.Observe): duplicate OIDs are canonicalized
// by model.CanonSnapshot, exactly as model.NewDataset canonicalizes a tick,
// so streaming a feed with duplicate fixes yields byte-identical results to
// batch-mining the same records. A snapshot whose OIDs already ascend — every
// tick convoyd's reorder buffer releases — is recognised in one linear pass;
// any other duplicate-free snapshot costs one pass over dupChk, a
// caller-owned scratch map cleared here. Neither allocates, and the input is
// never modified.
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

// Last returns the most recently observed timestamp; ok is false before the
// first Observe (and after a Reset).
func (s *StreamMiner) Last() (t int32, ok bool) { return s.miner.Last() }

// ObjPos is an object's position within one snapshot.
type ObjPos = model.ObjPos

// Closed drains the convoys that have closed since the last call, in the
// order they closed. A convoy is closed when its group can no longer be
// extended at the most recent observed timestamp.
//
// Every convoy is reported exactly once: the sweep closes each convoy
// once, and a convoy is maximal as it closes — none closed later covers it
// (see cmc.Miner.Finish). Convoys that close at the same tick are reported
// in the sweep's candidate order (see cmc.Miner). Cost is proportional to
// the newly closed convoys, not the accumulated result set, so polling
// after every batch stays cheap on long-lived streams.
func (s *StreamMiner) Closed() []Convoy { return s.miner.Drain() }

// Flush ends the stream: every still-open convoy of sufficient length is
// closed at the last observed timestamp, and the full maximal result set is
// returned.
func (s *StreamMiner) Flush() []Convoy {
	return s.miner.Finish()
}

// Reset returns the miner to its initial state, discarding all open
// candidates, closed convoys and timestamp history while keeping the
// parameters. After a Reset the miner accepts any timestamp again.
func (s *StreamMiner) Reset() { s.miner.Reset() }
