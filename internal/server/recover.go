package server

import (
	"fmt"
	"sort"
	"time"

	convoy "repro"
	"repro/internal/storage"
)

// recover opens (or creates) the convoy log, replaying any existing
// records: each feed found in the log is recreated with its cursor at the
// end of its logged history and its resume point — the End tick of its
// last logged record and the trailing records that end there. The feeds
// map is populated before the shard actors start, so no locking is needed.
// Recovered feeds restart with a fresh miner — in-flight (unclosed) mining
// state is not logged, so clients re-send from their last snapshot and the
// resume point drops what the log already holds (see resumePoint.covers).
// What recovery keeps per feed is one tick's records, so startup memory
// does not grow with the log.
func (s *Server) recover() error {
	type recovered struct {
		resume  resumePoint // reused: one tick's records at a time
		pattern convoy.Pattern
		count   int
		lastIdx int // index of the feed's newest log record (recency proxy)
		flushed bool
	}
	rec := map[string]*recovered{}
	idx := 0
	sink, err := storage.OpenConvoyLogFrom(s.cfg.PersistPath, 0, func(_ int64, lc storage.LoggedConvoy) error {
		r := rec[lc.Feed]
		if r == nil {
			r = &recovered{pattern: convoy.DefaultPattern}
			rec[lc.Feed] = r
		}
		// Every record carries the feed's pattern tag (including the flush
		// sentinel), so recovery restores the negotiated pattern mode.
		r.pattern = patternFromLog(lc.Pattern)
		if storage.IsFlushMarker(lc.Convoy) {
			// Terminal-state sentinel, not a convoy: restores the flushed
			// bit without entering the cursor domain or the resume point.
			r.flushed = true
			return nil
		}
		w := &r.resume
		if len(w.tail) == 0 || w.end != lc.Convoy.End {
			clear(w.tail)
			w.end, w.tail = lc.Convoy.End, w.tail[:0]
		}
		w.tail = append(w.tail, convoy.PatternResult{Convoy: lc.Convoy, Clusters: lc.Clusters})
		r.count++
		r.lastIdx = idx
		idx++
		s.recoveredRecs++
		return nil
	})
	if err != nil {
		return err
	}
	// The log accumulates every feed ever served (eviction removes feeds
	// from memory, never records from the log), so an old log can name far
	// more feeds than the server should hold resident. Cap resurrection at
	// MaxFeeds, keeping the most recently appended-to feeds; the rest lose
	// their resume point exactly as if they had been TTL-evicted (their
	// records stay in the log, and compaction removes any duplicates a
	// later replay appends).
	names := make([]string, 0, len(rec))
	for name := range rec {
		names = append(names, name)
	}
	// Name order, not map order, from here on: placement depends on the
	// order feeds become resident (and the trim below on how recency ties
	// fall), and two starts over one log must agree.
	sort.Strings(names)
	if len(names) > s.cfg.MaxFeeds {
		sort.SliceStable(names, func(a, b int) bool { return rec[names[a]].lastIdx > rec[names[b]].lastIdx })
		for i, name := range names[s.cfg.MaxFeeds:] {
			// Tombstone the dropped feed's cursor head, exactly as TTL
			// eviction does: a later incarnation under this name must
			// continue the domain, not restart it under a returning
			// client's stale cursor. The same 4×MaxFeeds bound applies —
			// beyond it (recency order), dropped names simply restart
			// their domain, keeping startup memory configured-bounded
			// rather than log-age-bounded.
			if i < 4*s.cfg.MaxFeeds {
				s.tombs[name] = rec[name].count
			}
		}
		names = names[:s.cfg.MaxFeeds]
		sort.Strings(names)
	}
	now := time.Now().UnixNano()
	for _, name := range names {
		r := rec[name]
		f, err := newFeed(name, r.pattern, s.cfg.patternParams(), s.cfg.Window)
		if err != nil {
			sink.Close()
			return fmt.Errorf("server: recover feed %q: %w", name, err)
		}
		f.bucket = s.newBucket(now)
		if len(r.resume.tail) > 0 {
			f.resume = &r.resume
		}
		f.start, f.durable = r.count, r.count
		if r.flushed {
			// The flush sentinel restores the terminal state: ingest stays
			// 409 and polls short-circuit with Flushed:true across the
			// restart. The final maximal set itself lives in the log, not
			// in memory (the fresh miner's Flush is empty — /flush replies
			// with the cursor position, and the history is replayable from
			// the log).
			f.flushed = true
			f.flushLogged = true
		}
		f.touch(now)
		s.place(f)
	}
	s.recoveredFeeds = len(names)
	s.sink = sink
	return nil
}

// logPattern maps a feed's pattern family to its convoy-log tag.
func logPattern(p convoy.Pattern) uint8 {
	switch p {
	case convoy.PatternFlock:
		return storage.LogPatternFlock
	case convoy.PatternMC:
		return storage.LogPatternMC
	default:
		return storage.LogPatternConvoy
	}
}

// patternFromLog is the inverse of logPattern. Untagged (v1) records map to
// the convoy pattern, so logs written before pattern modes existed recover
// exactly as before.
func patternFromLog(tag uint8) convoy.Pattern {
	switch tag {
	case storage.LogPatternFlock:
		return convoy.PatternFlock
	case storage.LogPatternMC:
		return convoy.PatternMC
	default:
		return convoy.PatternConvoy
	}
}
