package server

import "time"

// Feed lifecycle: TTL eviction of idle feeds.
//
// A convoyd that serves an open-ended feed namespace must eventually forget
// feeds nobody talks to, or its memory grows with the lifetime of the
// process (ROADMAP: "convoyd feed retention"). The sweep below evicts any
// feed — flushed or not — whose last ingest, query, or flush activity is
// older than Config.FeedTTL, with one safety rail: while a healthy sink is
// configured, a feed is only evicted once its entire published history is
// durably in the log (fsynced, not merely handed to the sink's buffer), so
// eviction never loses a closed convoy that could still reach the log.
// (The sweep runs every Config.EvictEvery on the server's one background
// loop, beside the persist tick that catches the feed up; a later sweep
// then collects it.)
//
// Eviction is coordinated with ingest through two invariants:
//
//   - enqueue bumps feed.pending and checks feed.evicted while holding the
//     server's read lock; eviction flips evicted and requires pending == 0
//     while holding the write lock. The locks exclude each other, so either
//     the enqueue completes first (pending > 0 → eviction aborts and
//     retries next sweep) or the eviction completes first (enqueue sees
//     evicted and fails with ErrFeedEvicted, which ingest answers by
//     recreating the feed);
//   - pending is decremented by the shard actor only after the message is
//     fully processed, so pending == 0 also means no in-queue work can
//     outlive the feed.
//
// An evicted feed's miner, reorder buffer, history, and dedup keys are all
// dropped. Ingest under the same name later starts a fresh feed lifecycle:
// convoys already persisted by the evicted incarnation can then be appended
// again if the same data is re-sent (the dedup keys died with the feed) —
// storage.CompactConvoyLog removes such duplicates offline.

// sweep collects the idle candidates under the read lock, then evicts each
// one under the write lock (re-validating per feed, since activity may have
// resumed in between).
func (s *Server) sweep(now time.Time) {
	cutoff := now.Add(-s.cfg.FeedTTL).UnixNano()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return
	}
	var idle []*feed
	for _, f := range s.feeds {
		if f.lastActive.Load() <= cutoff {
			idle = append(idle, f)
		}
	}
	s.mu.RUnlock()
	for _, f := range idle {
		s.evict(f, cutoff)
	}
}

// evict removes one idle feed if it is still safe to do so; otherwise it
// leaves the feed for a later sweep. See the package comment above for the
// enqueue/evict exclusion argument.
func (s *Server) evict(f *feed, cutoff int64) {
	s.mu.Lock()
	if s.closed || s.feeds[f.name] != f {
		s.mu.Unlock()
		return
	}
	if f.lastActive.Load() > cutoff || f.pending.Load() != 0 || f.waiters.Load() != 0 {
		s.mu.Unlock()
		return
	}
	if s.sink != nil {
		// Durable, not persisted: the persisted marker advances before the
		// write (at-most-once guard), so records can sit in the sink's
		// unflushed buffer with persisted == head. Only a successful Sync
		// advances durable, and only a fully durable feed may be dropped.
		// This deliberately also applies when the sink is broken: durable
		// is frozen then, so feeds holding convoys that never reached the
		// log stay resident forever — the server degrades toward keeping
		// data over keeping its memory bound, and /v1/stats flags
		// sink_broken so the operator knows to restart.
		f.mu.Lock()
		undurable := f.head() != f.durable
		f.mu.Unlock()
		if undurable {
			s.mu.Unlock()
			return
		}
	}
	f.evicted.Store(true)
	delete(s.feeds, f.name)
	s.resident[f.shard]--
	f.mu.Lock()
	head := f.head()
	f.mu.Unlock()
	if head > 0 {
		// Tombstone the cursor head so a future incarnation under this
		// name continues the domain (see Server.tombs). Wholesale clear
		// keeps an adversarial feed namespace from growing this forever.
		if len(s.tombs) >= 4*s.cfg.MaxFeeds {
			clear(s.tombs)
		}
		s.tombs[f.name] = head
	}
	s.mu.Unlock()
	s.evictedTotal.Add(1)
	f.wake() // long-pollers observe f.evicted and answer 410
}
