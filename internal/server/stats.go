package server

import (
	"runtime/metrics"

	"repro/internal/storage/archive"
)

// Stats is the /v1/stats payload.
type Stats struct {
	Shards []ShardStats         `json:"shards"`
	Feeds  map[string]FeedStats `json:"feeds"`
	// Patterns breaks the live feeds down per pattern family: how many
	// resident feeds mine each family and how many patterns they have
	// closed in total (including recovered history).
	Patterns map[string]PatternStats `json:"patterns"`
	Memory   MemoryStats             `json:"memory"`
	// Archive reports the historical query archive (absent when no
	// ArchiveDir is configured).
	Archive *ArchiveStats `json:"archive,omitempty"`
	// SinkBroken reports that persistence was disabled by a write error.
	SinkBroken bool `json:"sink_broken,omitempty"`
	// Admission reports how often each ingest-shedding mechanism fired
	// (see admission.go).
	Admission AdmissionStats `json:"admission"`
}

// ArchiveStats is the archive section of /v1/stats: the archive's own
// size/query counters plus the server-side feed machinery around it.
type ArchiveStats struct {
	archive.Stats
	// Backfilled is the number of records replayed from the convoy log at
	// startup; Rebuilt reports that the log had diverged (e.g. offline
	// compaction) and the archive was rebuilt from scratch.
	Backfilled int64 `json:"backfilled_records"`
	Rebuilt    bool  `json:"rebuilt_on_start,omitempty"`
	// Broken reports that an archive write error disabled archiving for
	// this process; queries keep serving the archived prefix, and the
	// next startup repairs the gap from the log.
	Broken bool `json:"broken,omitempty"`
}

// PatternStats aggregates one pattern family across the live feeds.
type PatternStats struct {
	LiveFeeds   int   `json:"live_feeds"`
	ClosedTotal int64 `json:"closed_total"`
}

// ShardStats is one shard's queue occupancy and the number of resident
// feeds placed on it.
type ShardStats struct {
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	Feeds    int `json:"feeds"`
}

// MemoryStats summarises what bounds the server's resident footprint: how
// many feeds are live, how much published history is resident versus
// truncated to the log, and the lifetime eviction/recovery counters.
type MemoryStats struct {
	LiveFeeds        int    `json:"live_feeds"`
	EvictedTotal     int64  `json:"evicted_feeds_total"`
	ClosedInMemory   int    `json:"closed_convoys_in_memory"`
	TruncatedTotal   int64  `json:"truncated_convoys_total"`
	RecoveredFeeds   int    `json:"recovered_feeds,omitempty"`
	RecoveredConvoys int    `json:"recovered_convoys,omitempty"`
	HeapAllocBytes   uint64 `json:"heap_alloc_bytes"`
}

// Stats returns a point-in-time snapshot of server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Feeds:      map[string]FeedStats{},
		Patterns:   map[string]PatternStats{},
		SinkBroken: s.sinkBroken.Load(),
	}
	st.Shards = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		st.Shards[i] = ShardStats{QueueLen: len(sh.in), QueueCap: cap(sh.in)}
	}
	st.Admission.RateLimitedTotal = s.rateLimited.Load()
	st.Admission.QueueFullTotal = s.queueFull.Load()
	s.mu.RLock()
	for name, f := range s.feeds {
		fs, _ := f.snapshotStats()
		st.Feeds[name] = fs
		st.Memory.ClosedInMemory += fs.ClosedInMemory
		ps := st.Patterns[fs.Pattern]
		ps.LiveFeeds++
		ps.ClosedTotal += fs.ClosedTotal
		st.Patterns[fs.Pattern] = ps
	}
	for i, n := range s.resident {
		st.Shards[i].Feeds = n
	}
	st.Memory.LiveFeeds = len(s.feeds)
	s.mu.RUnlock()
	st.Memory.EvictedTotal = s.evictedTotal.Load()
	st.Memory.TruncatedTotal = s.truncatedTotal.Load()
	st.Memory.RecoveredFeeds = s.recoveredFeeds
	st.Memory.RecoveredConvoys = s.recoveredRecs
	if s.arch != nil {
		st.Archive = &ArchiveStats{
			Stats:      s.arch.Stats(),
			Backfilled: s.backfilled,
			Rebuilt:    s.archRebuilt,
			Broken:     s.archBroken.Load(),
		}
	}
	// runtime/metrics, not runtime.ReadMemStats: stats endpoints get polled
	// every few seconds by monitoring, and ReadMemStats stops the world.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	if heap[0].Value.Kind() == metrics.KindUint64 {
		st.Memory.HeapAllocBytes = heap[0].Value.Uint64()
	}
	return st
}
