package server

import (
	convoy "repro"
)

// shardMsg is one unit of work on a shard's ingest queue: either a batch of
// snapshots for a feed, or (when flushReply is non-nil) a flush request.
// Flushes travel through the same queue as ingest, so a flush observes
// every batch enqueued before it — FIFO per shard is what makes per-feed
// output deterministic.
type shardMsg struct {
	feed       *feed
	snaps      []tick
	flushReply chan []convoy.PatternResult
}

// shard is one actor: a bounded ingest queue plus the goroutine that owns
// every feed placed on it. All mining for those feeds happens on this one
// goroutine, so per-feed state needs no locks and per-feed processing order
// equals queue order.
type shard struct {
	id  int
	in  chan shardMsg
	srv *Server
}

// run is the actor loop; it exits when the queue is closed by Server.Close.
// The feed's pending count drops only after the message is fully processed,
// so TTL eviction (which requires pending == 0) can never collect a feed
// with work still in flight.
func (sh *shard) run() {
	for msg := range sh.in {
		if hook := sh.srv.testHook; hook != nil {
			hook(sh.id)
		}
		if msg.flushReply != nil {
			sh.flush(msg.feed, msg.flushReply)
		} else {
			sh.ingest(msg.feed, msg.snaps)
		}
		msg.feed.pending.Add(-1)
	}
}

// ingest runs one batch through the feed's reordering buffer and miner.
func (sh *shard) ingest(f *feed, snaps []tick) {
	if f.flushed {
		// The feed was flushed while this batch sat in the queue. This is a
		// different failure mode than watermark lateness, so it gets its own
		// counter — late_dropped stays meaningful for -window tuning.
		f.mu.Lock()
		f.stats.FlushedDropped += int64(len(snaps))
		f.mu.Unlock()
		return
	}
	var accepted, late, mined int64
	for _, s := range snaps {
		ready, isLate := f.buf.add(s.t, s.pos)
		if isLate {
			late++
			continue
		}
		accepted++
		mined += int64(len(ready))
		sh.observe(f, ready)
	}
	f.mu.Lock()
	f.stats.SnapshotsIn += accepted
	f.stats.LateDropped += late
	f.stats.TicksMined += mined
	f.mu.Unlock()
	f.publish(f.miner.Closed())
}

// flush drains the reordering buffer, ends the stream, publishes what the
// flush closed and replies with the full maximal result set. A repeated
// flush replies with the same set: Flush closes nothing more once the
// stream has ended, and a recovered flushed feed's fresh miner holds
// nothing (its history is in the log).
func (sh *shard) flush(f *feed, reply chan []convoy.PatternResult) {
	if f.flushed {
		reply <- f.miner.Flush()
		return
	}
	rest := f.buf.drain()
	f.mu.Lock()
	f.stats.TicksMined += int64(len(rest))
	f.mu.Unlock()
	sh.observe(f, rest)
	final := f.miner.Flush()
	f.publish(f.miner.Closed())
	f.markFlushed()
	reply <- final
}

// observe feeds sealed ticks to the miner. The reordering buffer guarantees
// strictly increasing timestamps, so Observe cannot fail here; a failure
// would be a server bug and panics loudly rather than silently dropping
// data.
func (sh *shard) observe(f *feed, ticks []tick) {
	for _, tk := range ticks {
		if err := f.miner.Observe(tk.t, tk.pos); err != nil {
			panic("server: reorder buffer emitted non-monotonic tick: " + err.Error())
		}
	}
}
