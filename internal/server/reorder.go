package server

import (
	"slices"

	"repro/internal/model"
)

// reorder is the bounded per-feed reordering buffer: it absorbs snapshots
// that arrive out of timestamp order and releases them to the miner in
// strictly increasing order, tolerating disorder within a window of W
// ticks.
//
// The rule is classic watermarking: after the buffer has seen a snapshot
// for tick T, every tick ≤ T−W is sealed — released to the miner in order —
// and the watermark advances. A snapshot arriving for a tick at or below
// the watermark is too late (its tick was already mined) and is dropped.
// Pending ticks therefore always lie in (maxSeen−W, maxSeen], so the buffer
// holds at most W+1 distinct ticks: bounded by construction, no eviction
// policy needed.
//
// Partial snapshots merge: two batches for the same pending tick append
// their positions, and the merged snapshot is put into canonical form when
// sealed (model.CanonSnapshot: sorted by OID, last write wins — the rule
// model.NewDataset applies).
type reorder struct {
	window  int32
	pending map[int32][]model.ObjPos
	maxSeen int32
	// watermark is the highest tick already released. It is an int64 so the
	// pre-release state (first tick − window − 1) cannot underflow when a
	// feed starts near the bottom of the int32 tick range.
	watermark int64
	started   bool
}

// tick is one sealed snapshot released to the miner.
type tick struct {
	t   int32
	pos []model.ObjPos
}

func newReorder(window int32) *reorder {
	if window < 0 {
		window = 0
	}
	return &reorder{window: window, pending: map[int32][]model.ObjPos{}}
}

// add ingests one (possibly partial, possibly out-of-order) snapshot and
// returns the ticks it seals, in increasing timestamp order. late reports
// that t was at or below the watermark and the snapshot was dropped.
//
// add takes ownership of pos: the first part of a tick is kept as is (and
// later sorted in place), not copied — a city snapshot is the largest
// object on the ingest path, and the shard message that carried it is
// dropped right after this call. Only a further part of the same tick is
// copied, onto the first.
func (b *reorder) add(t int32, pos []model.ObjPos) (ready []tick, late bool) {
	if b.started && int64(t) <= b.watermark {
		return nil, true
	}
	if have, ok := b.pending[t]; ok {
		b.pending[t] = append(have, pos...)
	} else {
		b.pending[t] = pos
	}
	if !b.started || t > b.maxSeen {
		b.maxSeen = t
	}
	if !b.started {
		b.started = true
		b.watermark = int64(t) - int64(b.window) - 1 // nothing released yet
	}
	return b.release(int64(b.maxSeen) - int64(b.window)), false
}

// drain seals every pending tick regardless of the window — the end-of-feed
// flush path.
func (b *reorder) drain() []tick {
	if !b.started {
		return nil
	}
	return b.release(int64(b.maxSeen))
}

// pendingTicks returns the number of buffered (unsealed) ticks.
func (b *reorder) pendingTicks() int { return len(b.pending) }

// release seals every pending tick ≤ upTo, in increasing order.
func (b *reorder) release(upTo int64) []tick {
	var ts []int32
	for t := range b.pending {
		if int64(t) <= upTo {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return nil
	}
	slices.Sort(ts)
	out := make([]tick, 0, len(ts))
	for _, t := range ts {
		out = append(out, tick{t: t, pos: model.CanonSnapshot(b.pending[t])})
		delete(b.pending, t)
	}
	if last := int64(ts[len(ts)-1]); last > b.watermark {
		b.watermark = last
	}
	return out
}
