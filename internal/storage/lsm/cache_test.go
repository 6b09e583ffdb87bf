package lsm

import "testing"

// oneShardKeys returns n keys of table that all land in the same shard.
func oneShardKeys(c *blockCache, table uint64, n int) (*cacheShard, []cacheKey) {
	var s *cacheShard
	var keys []cacheKey
	for b := 0; len(keys) < n; b++ {
		k := cacheKey{table: table, block: b}
		if s == nil {
			s = c.shard(k)
		}
		if c.shard(k) == s {
			keys = append(keys, k)
		}
	}
	return s, keys
}

func checkCap(t *testing.T, c *blockCache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.m) > s.cap || len(s.slots) > s.cap {
			t.Fatalf("shard %d: %d entries, %d slots, cap %d", i, len(s.m), len(s.slots), s.cap)
		}
	}
}

// A block read again between insert sweeps keeps its used bit and
// survives a sweep that evicts every cold block.
func TestBlockCacheHotEntrySurvives(t *testing.T) {
	c := newBlockCache(0) // the floor: 4 entries per shard
	s, keys := oneShardKeys(c, 1, 3*4)
	hot := keys[0]
	for _, k := range keys[:s.cap] {
		c.put(k, []byte{byte(k.block)})
	}
	for _, k := range keys[s.cap:] {
		if _, ok := c.get(hot); !ok {
			t.Fatalf("hot block evicted before inserting %v", k)
		}
		c.put(k, []byte{byte(k.block)})
		checkCap(t, c)
	}
	if b, ok := c.get(hot); !ok || b[0] != byte(hot.block) {
		t.Fatalf("hot block lost: %v %v", b, ok)
	}
	for _, k := range keys[1:s.cap] {
		if _, ok := c.get(k); ok {
			t.Fatalf("cold block %v survived %d inserts into a %d-slot shard", k, len(keys)-s.cap, s.cap)
		}
	}
}

// dropTable removes every block of the table at once, and the clock hand
// hands the freed slots to the next inserts before it evicts a hot entry.
func TestBlockCacheDropTable(t *testing.T) {
	c := newBlockCache(64 * blockBytes)
	for b := 0; b < 40; b++ {
		c.put(cacheKey{table: 1, block: b}, []byte{1})
		c.put(cacheKey{table: 2, block: b}, []byte{2})
		checkCap(t, c)
	}
	c.dropTable(1)
	for b := 0; b < 40; b++ {
		if _, ok := c.get(cacheKey{table: 1, block: b}); ok {
			t.Fatalf("block %d of a dropped table still cached", b)
		}
	}
	// Read every resident table-2 block, then fill the dead slots with
	// table 3: none of the hot table-2 blocks may be evicted for it.
	resident := map[cacheKey]bool{}
	for b := 0; b < 40; b++ {
		k := cacheKey{table: 2, block: b}
		if _, ok := c.shard(k).m[k]; ok {
			resident[k] = true
			c.get(k)
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		dead := 0
		for _, sl := range sh.slots {
			if !sl.live {
				dead++
				if sl.block != nil {
					t.Fatal("a dead slot still holds its block")
				}
			}
		}
		for b, n := 0, 0; n < dead; b++ {
			k := cacheKey{table: 3, block: b}
			if c.shard(k) == sh {
				c.put(k, []byte{3})
				n++
			}
		}
		checkCap(t, c)
		if len(sh.m) != len(sh.slots) {
			t.Fatalf("shard %d: %d entries in %d slots after refilling dead slots", i, len(sh.m), len(sh.slots))
		}
	}
	for k := range resident {
		if b, ok := c.get(k); !ok || b[0] != 2 {
			t.Fatalf("live block %v evicted while dead slots were free", k)
		}
	}
}

// Every get is counted exactly once, as a hit or a miss, and the entry
// count stays within cap under a long mixed workload.
func TestBlockCacheCounters(t *testing.T) {
	c := newBlockCache(16 * blockBytes)
	var gets, hits int64
	for i := 0; i < 5000; i++ {
		k := cacheKey{table: uint64(1 + i%3), block: (i * 7919) % 97}
		gets++
		if _, ok := c.get(k); ok {
			hits++
		} else {
			c.put(k, []byte{byte(i)})
		}
		if i%1000 == 999 {
			c.dropTable(uint64(1 + i%3))
		}
		checkCap(t, c)
	}
	h, m := c.counters()
	if h != hits || h+m != gets {
		t.Fatalf("counters: %d hits + %d misses, want %d hits of %d gets", h, m, hits, gets)
	}
}
