package lsm

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// blockCache is the DB-wide cache of decoded SSTable data blocks. It
// replaces the old per-table map guarded by db.mu: snapshot reads touch the
// cache without any DB lock, so the cache shards its own locking. Entries
// are keyed by (table id, block index) — table ids are unique for the
// lifetime of the process, so a retired table's blocks can never be
// mistaken for a successor's.
//
// Eviction is CLOCK (second chance) per shard: a hit sets the entry's used
// bit; the insert hand clears used bits until it finds a cold entry to
// replace. The global byte budget is split evenly across shards; each shard
// is an independent mutex + map + ring, so concurrent readers on different
// shards never contend.
type blockCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

const (
	cacheShards = 8
	// blockBytes is the nominal size of a full data block, used to convert
	// the configured byte budget into an entry count.
	blockBytes = blockRecs * recSize
)

type cacheKey struct {
	table uint64
	block int
}

type cacheShard struct {
	mu   sync.Mutex
	cap  int
	m    map[cacheKey][]byte
	ring []cacheKey
	used []bool
	hand int
}

// newBlockCache sizes a cache for roughly byteBudget bytes of blocks.
func newBlockCache(byteBudget int) *blockCache {
	entries := byteBudget / blockBytes
	per := entries / cacheShards
	if per < 4 {
		per = 4
	}
	c := &blockCache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].m = make(map[cacheKey][]byte, per)
	}
	return c
}

func (c *blockCache) shard(k cacheKey) *cacheShard {
	// fmix-style scramble so consecutive block indexes of one table spread
	// across shards.
	h := k.table*0x9e3779b97f4a7c15 + uint64(k.block)*0xbf58476d1ce4e5b9
	h ^= h >> 33
	return &c.shards[h%cacheShards]
}

// get returns the cached block for k, recording a hit or miss.
func (c *blockCache) get(k cacheKey) ([]byte, bool) {
	s := c.shard(k)
	s.mu.Lock()
	b, ok := s.m[k]
	if ok {
		for i, rk := range s.ring {
			if rk == k {
				s.used[i] = true
				break
			}
		}
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return b, ok
}

// put inserts block b for k, evicting a cold entry if the shard is full.
// The caller must not mutate b afterwards.
func (c *blockCache) put(k cacheKey, b []byte) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		s.m[k] = b
		return
	}
	if len(s.ring) < s.cap {
		s.m[k] = b
		s.ring = append(s.ring, k)
		s.used = append(s.used, false)
		return
	}
	for {
		old := s.ring[s.hand]
		_, live := s.m[old]
		if live && s.used[s.hand] {
			s.used[s.hand] = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		// Cold (or already invalidated by dropTable): take the slot.
		delete(s.m, old)
		s.ring[s.hand] = k
		s.used[s.hand] = false
		s.m[k] = b
		s.hand = (s.hand + 1) % len(s.ring)
		return
	}
}

// dropTable eagerly removes every cached block of a retired table. Ring
// slots keep the stale key and are reclaimed lazily by put's clock sweep.
// Racing readers that still hold a snapshot of the table may briefly
// re-insert its blocks; the unique table id keeps those entries harmless
// and the clock evicts them once cold.
func (c *blockCache) dropTable(table uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.m {
			if k.table == table {
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}

// counters returns the cumulative hit/miss totals.
func (c *blockCache) counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// readEnv bundles what a point read needs beyond the table itself: the
// shared block cache and the counter sinks. A nil env (or nil fields)
// disables the corresponding feature — compaction merges pass nil to bypass
// the cache entirely, since a one-shot sequential merge would only thrash
// it.
type readEnv struct {
	cache *blockCache
	io    *storage.IOStats
	rs    *readStats
}

// readStats holds the read-path counters surfaced by DB.ReadStats. All
// fields are atomic: they are bumped by lock-free snapshot reads.
type readStats struct {
	// bloomHits counts point lookups a table's bloom filter short-circuited
	// (key proved absent without touching data blocks); bloomMisses counts
	// lookups that passed the filter and went on to a block read.
	bloomHits   atomic.Int64
	bloomMisses atomic.Int64
}

// ReadStats is a point-in-time copy of the DB's read-path counters.
type ReadStats struct {
	BloomHits        int64 // point reads short-circuited by a bloom filter
	BloomMisses      int64 // point reads that passed a filter to a block read
	BlockCacheHits   int64
	BlockCacheMisses int64
	LiveSnapshots    int64 // snapshots currently held by readers
}

// ReadStats returns the current read-path counters.
func (db *DB) ReadStats() ReadStats {
	h, m := db.cache.counters()
	return ReadStats{
		BloomHits:        db.rstats.bloomHits.Load(),
		BloomMisses:      db.rstats.bloomMisses.Load(),
		BlockCacheHits:   h,
		BlockCacheMisses: m,
		LiveSnapshots:    db.liveSnapshots.Load(),
	}
}
