package server

import (
	"slices"
	"sync"
	"sync/atomic"

	convoy "repro"
)

// feed is one trajectory feed (a dataset/region key). Its mining state —
// the PatternMiner, the reordering buffer, and the resume point recovered
// from the convoy log — is owned exclusively by the shard actor the feed
// was placed on; no lock protects it and none is needed.
//
// The published state below mu is the read side: HTTP handlers serve
// long-polls and stats from it, and the persistence tick drains it.
//
// A feed's published history lives in an absolute cursor domain: convoys
// are numbered from 0 in publish order, but only the suffix
// [start, start+len(closed)) is resident — the prefix below start
// (truncatedBefore) was persisted to the convoy log and dropped from
// memory. Queries with a cursor below start answer 410 Gone.
type feed struct {
	name  string
	shard int // set once by Server.place, before the feed is reachable
	// pattern is the movement-pattern family this feed mines (negotiated at
	// creation, immutable for the feed's lifetime — recovery restores it
	// from the convoy log and mismatching ingests are rejected).
	pattern convoy.Pattern

	// --- owned by the shard actor goroutine, unguarded -------------------
	miner *convoy.PatternMiner
	buf   *reorder
	// resume is where a recovered feed's log ends (see recover.go), so a
	// client re-sending after a restart does not publish what the log
	// already holds. Nil for a feed that recovered nothing, and cleared
	// once the feed publishes a pattern ending after it: the miner reports
	// each pattern once, so what the feed closes itself needs no dedup.
	resume *resumePoint

	// --- lifecycle coordination (see lifecycle.go) -----------------------
	// pending counts shard messages enqueued but not yet fully processed;
	// eviction requires it to be zero so no in-queue work can outlive the
	// feed. evicted flips once, under the server's write lock; enqueue
	// checks it under the read lock, so the two can never miss each other.
	// lastActive is the unix-nano time of the latest ingest, query or
	// flush touching the feed.
	// waiters counts long-polls currently blocked on this feed; the sweep
	// treats a waited-on feed as active, so a poller whose wait exceeds
	// FeedTTL cannot have the feed evicted out from under it.
	pending    atomic.Int64
	waiters    atomic.Int64
	evicted    atomic.Bool
	lastActive atomic.Int64

	// bucket is the feed's ingest token bucket (nil when Config.IngestRate
	// is 0). Internally synchronized; set once at feed creation.
	bucket *tokenBucket

	// --- published state, guarded by mu ----------------------------------
	mu     sync.Mutex
	closed []convoy.PatternResult // resident history suffix: absolute indices [start, head)
	start  int                    // absolute index of closed[0] (truncatedBefore)
	// durable advances only after a successful Sync covering the records,
	// so it is where the next persist round starts and the safe bound for
	// anything that discards in-memory state (eviction, truncation).
	// Invariant: start ≤ durable ≤ head.
	durable int
	// flushed is set once, by the owning shard actor's flush (or by
	// recovery, before the actors start); further ingest is dropped. Its
	// only writer reads it without the lock.
	flushed bool
	// flushLogged records that the flush sentinel reached the log, making
	// the flushed state restart-durable (written by persistAll in the
	// round that makes the whole history durable).
	flushLogged bool
	notify      chan struct{} // closed and replaced on every publish/flush/evict
	// stats holds the actor's counters; snapshotStats derives the cursor
	// domain's from start and closed.
	stats FeedStats
}

// FeedStats are the per-feed counters exposed by /v1/stats.
type FeedStats struct {
	Pattern         string `json:"pattern"`          // the feed's pattern family
	SnapshotsIn     int64  `json:"snapshots_in"`     // snapshots accepted into the buffer
	TicksMined      int64  `json:"ticks_mined"`      // sealed ticks fed to the miner
	LateDropped     int64  `json:"late_dropped"`     // snapshots behind the watermark
	FlushedDropped  int64  `json:"flushed_dropped"`  // snapshots racing an earlier flush
	ClosedTotal     int64  `json:"closed_total"`     // head: convoys ever published (incl. recovered)
	TruncatedBefore int    `json:"truncated_before"` // lower bound of the live cursor domain
	ClosedInMemory  int    `json:"closed_in_memory"` // resident history length (head − truncated_before)
	PendingTicks    int    `json:"pending_ticks"`    // buffered, not yet sealed
}

func newFeed(name string, pat convoy.Pattern, pp convoy.PatternParams, window int32) (*feed, error) {
	m, err := convoy.NewPatternMiner(pat, pp)
	if err != nil {
		return nil, err
	}
	f := &feed{
		name:    name,
		pattern: pat,
		miner:   m,
		buf:     newReorder(window),
		notify:  make(chan struct{}),
	}
	f.stats.Pattern = string(pat)
	return f, nil
}

// head is the absolute end of the published history. Caller holds f.mu.
func (f *feed) head() int { return f.start + len(f.closed) }

// touch records activity for TTL eviction.
func (f *feed) touch(nowNanos int64) { f.lastActive.Store(nowNanos) }

// resumePoint is where a recovered feed resumes: the End tick of the
// feed's last logged record and the trailing records that end there.
type resumePoint struct {
	end  int32
	tail []convoy.PatternResult
}

// covers reports whether publish drops c as already logged: c ends before
// end, or ends at end and equals a tail record. For a replay of the feed's
// stream that is exactly what the log holds — both sweeps close patterns
// in non-decreasing End, and the log holds a prefix of that emission
// sequence. A replay that resumes later also drops what it closes before
// end.
func (w *resumePoint) covers(c convoy.PatternResult) bool {
	if c.End != w.end {
		return c.End < w.end
	}
	return slices.ContainsFunc(w.tail, func(r convoy.PatternResult) bool {
		return r.Start == c.Start && slices.Equal(r.Objs, c.Objs) &&
			slices.EqualFunc(r.Clusters, c.Clusters, slices.Equal)
	})
}

// publish appends newly closed patterns (cs, the miner's fresh drain, in
// emission order) to the published list, minus any the feed's log already
// holds, and wakes all long-pollers. Called only from the owning shard
// actor.
func (f *feed) publish(cs []convoy.PatternResult) {
	if w := f.resume; w != nil && len(cs) > 0 {
		if cs[len(cs)-1].End > w.end {
			f.resume = nil // nothing the miner closes from here on is logged
		}
		cs = slices.DeleteFunc(cs, w.covers)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.PendingTicks = f.buf.pendingTicks()
	if len(cs) == 0 {
		return
	}
	f.closed = append(f.closed, cs...)
	close(f.notify)
	f.notify = make(chan struct{})
}

// markFlushed records the terminal state and wakes all long-pollers.
// Called only from the owning shard actor.
func (f *feed) markFlushed() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushed = true
	f.stats.PendingTicks = 0
	close(f.notify)
	f.notify = make(chan struct{})
}

// wake unblocks every long-poller without publishing anything; eviction
// uses it so pollers observe f.evicted instead of sleeping forever.
func (f *feed) wake() {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.notify)
	f.notify = make(chan struct{})
}

// truncateTo drops the resident history below the absolute index upTo
// (callers pass a durability watermark, never more than f.durable). The
// remainder is copied to a fresh slice so the old backing array is
// released. Returns the number of convoys dropped.
func (f *feed) truncateTo(upTo int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if upTo > f.durable {
		upTo = f.durable // never discard anything not yet fsynced
	}
	drop := upTo - f.start
	if drop <= 0 {
		return 0
	}
	rest := make([]convoy.PatternResult, len(f.closed)-drop)
	copy(rest, f.closed[drop:])
	f.closed = rest
	f.start = upTo
	return drop
}

// snapshotStats returns a consistent copy of the published counters.
func (f *feed) snapshotStats() (FeedStats, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.ClosedTotal = int64(f.head())
	st.TruncatedBefore = f.start
	st.ClosedInMemory = len(f.closed)
	return st, f.flushed
}
