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
// is an independent mutex + map + slot ring, so concurrent readers on
// different shards never contend. The map points a key at its slot, so a
// hit is one map lookup and one store, not a scan of the ring.
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

// cacheSlot is one position of a shard's CLOCK ring. A slot whose entry
// dropTable removed is dead (live false) and is the first thing the hand
// takes.
type cacheSlot struct {
	key   cacheKey
	block []byte
	used  bool
	live  bool
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	m     map[cacheKey]int // key → index into slots
	slots []cacheSlot
	hand  int
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
		c.shards[i].m = make(map[cacheKey]int, per)
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
	var b []byte
	i, ok := s.m[k]
	if ok {
		s.slots[i].used = true
		b = s.slots[i].block
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
	if i, ok := s.m[k]; ok {
		s.slots[i].block = b
		return
	}
	if len(s.slots) < s.cap {
		s.m[k] = len(s.slots)
		s.slots = append(s.slots, cacheSlot{key: k, block: b, live: true})
		return
	}
	for {
		sl := &s.slots[s.hand]
		if sl.live && sl.used {
			sl.used = false
			s.hand = (s.hand + 1) % len(s.slots)
			continue
		}
		// Cold, or dead since dropTable: take the slot.
		if sl.live {
			delete(s.m, sl.key)
		}
		*sl = cacheSlot{key: k, block: b, live: true}
		s.m[k] = s.hand
		s.hand = (s.hand + 1) % len(s.slots)
		return
	}
}

// dropTable eagerly removes every cached block of a retired table: its
// slots go dead, release their blocks, and are reclaimed by put's clock
// sweep. Racing readers that still hold a snapshot of the table may briefly
// re-insert its blocks; the unique table id keeps those entries harmless
// and the clock evicts them once cold.
func (c *blockCache) dropTable(table uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j := range s.slots {
			if sl := &s.slots[j]; sl.live && sl.key.table == table {
				delete(s.m, sl.key)
				*sl = cacheSlot{}
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
