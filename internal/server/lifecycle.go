package server

import (
	"slices"
	"time"

	convoy "repro"
	"repro/internal/storage"
)

// Feed lifecycle: TTL eviction of idle feeds.
//
// A convoyd that serves an open-ended feed namespace must eventually forget
// feeds nobody talks to, or its memory grows with the lifetime of the
// process (ROADMAP: "convoyd feed retention"). The sweep below evicts any
// feed — flushed or not — whose last ingest, query, or flush activity is
// older than Config.FeedTTL, with one safety rail: while a sink is
// configured, a feed is only evicted once its entire published history is
// durably in the log (fsynced, not merely handed to the sink's buffer), so
// eviction never loses a closed convoy that could still reach the log.
// (The sweep runs every FeedTTL/4, at least every 10ms, on the server's one
// background loop, beside the persist tick that catches the feed up; a
// later sweep then collects it.)
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
// An evicted feed's miner, reorder buffer, history, and resume point are
// all dropped, and with a sink its incarnation's end is logged and synced
// (storage.EvictMarker) before the feed is dropped. Ingest under the same
// name later starts a new incarnation, whose records reach the log only
// through persistAll on the same background loop — after the marker — so
// recovery folds each incarnation on its own (see recover).

// sweep collects the idle candidates under the read lock, then, under the
// write lock, re-validates each (activity may have resumed in between),
// logs the eviction of those still idle, and drops them.
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
	if len(idle) == 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	idle = slices.DeleteFunc(idle, func(f *feed) bool { return !s.evictable(f, cutoff) })
	if s.sink != nil && len(idle) > 0 {
		// A broken sink cannot log the markers, so it evicts nothing: data
		// wins over the memory bound, and /v1/stats flags sink_broken.
		markers := make([]storage.LoggedConvoy, len(idle))
		for i, f := range idle {
			markers[i] = evictMarker(f.name, f.pattern)
		}
		if s.sinkBroken.Load() || logEvictions(s.sink, markers) != nil {
			s.sinkBroken.Store(true)
			s.mu.Unlock()
			return
		}
	}
	for _, f := range idle {
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
	}
	s.mu.Unlock()
	if s.arch != nil && len(idle) > 0 && !s.archBroken.Load() {
		// Markers take no index entry, but a clean Close must still leave
		// the archive's checkpoint at the log's end.
		if err := s.arch.Index(nil, s.sink.Offset()); err != nil {
			s.archBroken.Store(true)
		}
	}
	s.evictedTotal.Add(int64(len(idle)))
	for _, f := range idle {
		f.wake() // long-pollers observe f.evicted and answer 410
	}
}

// evictable reports whether f may be evicted now. See the package comment
// above for the enqueue/evict exclusion argument. Caller holds mu for
// writing.
func (s *Server) evictable(f *feed, cutoff int64) bool {
	if s.feeds[f.name] != f || f.lastActive.Load() > cutoff ||
		f.pending.Load() != 0 || f.waiters.Load() != 0 {
		return false
	}
	// Only a successful Sync advances durable, so records handed to the
	// sink's buffer but not yet synced keep the feed resident.
	f.mu.Lock()
	defer f.mu.Unlock()
	return s.sink == nil || f.head() == f.durable
}

// evictMarker is the log record that ends the incarnation of the feed name
// mining pat.
func evictMarker(name string, pat convoy.Pattern) storage.LoggedConvoy {
	return storage.LoggedConvoy{Feed: name, Convoy: storage.EvictMarker(), Pattern: logPattern(pat)}
}

// logEvictions appends markers and syncs them, so each incarnation's end is
// durable before its name can start a new one.
func logEvictions(sink *storage.ConvoyLog, markers []storage.LoggedConvoy) error {
	if len(markers) == 0 {
		return nil
	}
	for _, m := range markers {
		if err := sink.AppendRecord(m); err != nil {
			return err
		}
	}
	return sink.Sync()
}
