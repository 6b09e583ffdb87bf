package server

import (
	"fmt"
	"sort"
	"time"

	convoy "repro"
	"repro/internal/storage"
)

// recover opens (or creates) the convoy log, replaying any existing
// records one incarnation at a time: at an eviction marker (see
// lifecycle.go) a name's flushed bit and resume point reset and its cursor
// domain carries on. A name whose last record is an eviction marker comes
// back as a tomb; every other name is recreated with its cursor at the end
// of its logged history and its resume point — the End tick of its last
// logged record and the trailing records that end there. The feeds map is
// populated before the shard actors start, so no locking is needed.
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
		evicted bool // the name's last record is an eviction marker
	}
	rec := map[string]*recovered{}
	idx := 0
	sink, err := storage.OpenConvoyLogFrom(s.cfg.PersistPath, 0, func(_ int64, lc storage.LoggedConvoy) error {
		r := rec[lc.Feed]
		if r == nil {
			r = &recovered{pattern: convoy.DefaultPattern}
			rec[lc.Feed] = r
		}
		// Every record carries the feed's pattern tag (markers included),
		// so recovery restores the negotiated pattern mode.
		r.pattern = patternFromLog(lc.Pattern)
		r.lastIdx = idx
		idx++
		c, w := lc.Convoy, &r.resume
		r.evicted = storage.IsMarker(c) && c.End == storage.EvictMarker().End
		switch {
		case r.evicted:
			// The next incarnation starts unflushed and resumes nowhere.
			r.flushed = false
			clear(w.tail)
			w.tail = w.tail[:0]
			return nil
		case storage.IsMarker(c):
			// The flush marker enters neither the cursor domain nor the
			// resume point.
			r.flushed = true
			return nil
		}
		if len(w.tail) == 0 || w.end != c.End {
			clear(w.tail)
			w.end, w.tail = c.End, w.tail[:0]
		}
		w.tail = append(w.tail, convoy.PatternResult{Convoy: c, Clusters: lc.Clusters})
		r.count++
		s.recoveredRecs++
		return nil
	})
	if err != nil {
		return err
	}
	// An old log can name far more feeds than the server should hold
	// resident. Cap resurrection at MaxFeeds, keeping the most recently
	// appended-to feeds, and evict the rest as the sweep does: log their
	// markers, so the next start restores the same feeds, and tombstone
	// their cursor heads beside those of names already evicted, so a later
	// incarnation continues the domain. Tombs keep the sweep's 4×MaxFeeds
	// bound, most recent first: beyond it, names restart their domain, so
	// startup memory is configured-bounded rather than log-age-bounded.
	names := make([]string, 0, len(rec))
	for name := range rec {
		names = append(names, name)
	}
	// Name order, not map order, breaks recency ties: placement depends on
	// the order feeds become resident, and two starts over one log must
	// agree.
	sort.Strings(names)
	sort.SliceStable(names, func(a, b int) bool { return rec[names[a]].lastIdx > rec[names[b]].lastIdx })
	var resident []string
	var trimmed []storage.LoggedConvoy
	for _, name := range names {
		r := rec[name]
		if !r.evicted && len(resident) < s.cfg.MaxFeeds {
			resident = append(resident, name)
			continue
		}
		if !r.evicted {
			trimmed = append(trimmed, evictMarker(name, r.pattern))
		}
		if r.count > 0 && len(s.tombs) < 4*s.cfg.MaxFeeds {
			s.tombs[name] = r.count
		}
	}
	if err := logEvictions(sink, trimmed); err != nil {
		sink.Close()
		return fmt.Errorf("server: recover: log evictions: %w", err)
	}
	sort.Strings(resident)
	now := time.Now().UnixNano()
	for _, name := range resident {
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
	s.recoveredFeeds = len(resident)
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
