package server

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// checkResidentCounts asserts the placement bookkeeping against the feed
// table it summarises: per shard, the kept count equals a recount of the
// map, and the shards' Feeds in Stats add up to Memory.LiveFeeds — no
// creation path that failed, and no eviction, leaked or dropped a count.
func checkResidentCounts(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.RLock()
	recount := make([]int, len(srv.resident))
	for _, f := range srv.feeds {
		recount[f.shard]++
	}
	kept := slices.Clone(srv.resident)
	srv.mu.RUnlock()
	if !slices.Equal(kept, recount) {
		t.Fatalf("resident counts %v, feed table holds %v", kept, recount)
	}
	st := srv.Stats()
	sum := 0
	for _, sh := range st.Shards {
		sum += sh.Feeds
	}
	if sum != st.Memory.LiveFeeds {
		t.Fatalf("shards hold %d feeds in total, live_feeds = %d", sum, st.Memory.LiveFeeds)
	}
}

// shardFeeds is Stats' per-shard resident feed count.
func shardFeeds(srv *Server) []int {
	st := srv.Stats()
	out := make([]int, len(st.Shards))
	for i, sh := range st.Shards {
		out[i] = sh.Feeds
	}
	return out
}

// TestPlacementBalance pins feed → shard placement: a `name-N` family of
// feeds spreads evenly (the shard with the fewest resident feeds, lowest
// index on a tie — so sequential creation is round-robin, the same on every
// run and always in range), flushed feeds keep their slot while resident, a
// shard emptied by eviction takes the next new feeds, and a creation refused
// at the feed cap changes nothing.
func TestPlacementBalance(t *testing.T) {
	const perShard = 5
	const ttl = time.Hour
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// With an hour-long TTL the background sweep never fires; the
			// test drives sweep itself with a future now, so it chooses
			// which feeds are idle.
			srv, ts := newTestServer(t, Config{Shards: shards, MaxFeeds: shards * perShard, FeedTTL: ttl})
			ingest := func(name string) {
				t.Helper()
				if code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/ingest", one); code != http.StatusAccepted {
					t.Fatalf("ingest %s: status %d: %s", name, code, body)
				}
			}
			want := slices.Repeat([]int{perShard}, shards)
			feeds := make([]*feed, shards*perShard)
			for i := range feeds {
				name := fmt.Sprintf("feed-%d", i)
				ingest(name)
				f, err := srv.feedFor(name, false, "")
				if err != nil || f == nil {
					t.Fatalf("feed %s not resident: %v", name, err)
				}
				if f.shard != i%shards {
					t.Fatalf("%s placed on shard %d, want %d (fewest feeds, lowest index on a tie)", name, f.shard, i%shards)
				}
				feeds[i] = f
			}
			// Flushed but resident: still counted.
			flushFeed(t, ts.URL, "feed-0")
			flushFeed(t, ts.URL, fmt.Sprintf("feed-%d", shards-1))
			if got := shardFeeds(srv); !slices.Equal(got, want) {
				t.Fatalf("feeds per shard %v, want %v", got, want)
			}

			// Every feed is idle as of one TTL from now; touch all but the
			// last shard's: a sweep as of `now` can only collect that
			// shard's feeds.
			victim := shards - 1
			now := time.Now().Add(ttl)
			for _, f := range feeds {
				if f.shard != victim && !srv.touchFeed(f) {
					t.Fatalf("feed %s evicted before the sweep", f.name)
				}
			}
			waitFor(t, 5*time.Second, "the victim shard to empty", func() bool {
				srv.sweep(now) // a feed whose ingest is still queued waits for the next call
				return shardFeeds(srv)[victim] == 0
			})
			want[victim] = 0
			if got := shardFeeds(srv); !slices.Equal(got, want) {
				t.Fatalf("feeds per shard after evicting shard %d: %v, want %v", victim, got, want)
			}
			checkResidentCounts(t, srv)

			for i := 0; i < perShard; i++ {
				name := fmt.Sprintf("late-%d", i)
				ingest(name)
				if f, _ := srv.feedFor(name, false, ""); f == nil || f.shard != victim {
					t.Fatalf("%s not placed on the emptied shard %d: %+v", name, victim, f)
				}
			}
			// At the cap: the refused creation must not leave a count behind.
			if code, _ := postJSON(t, ts.URL+"/v1/feeds/one-too-many/ingest", one); code != http.StatusTooManyRequests {
				t.Fatalf("feed beyond MaxFeeds: status %d, want 429", code)
			}
			want[victim] = perShard
			if got := shardFeeds(srv); !slices.Equal(got, want) {
				t.Fatalf("feeds per shard after refill: %v, want %v", got, want)
			}
			checkResidentCounts(t, srv)
		})
	}
}

// TestRecoveryPlacementIsDeterministic: recovery places the log's feeds in
// name order, not Go's map order, so two starts over the same log put every
// feed on the same shard, and the shards end up balanced within one feed.
func TestRecoveryPlacementIsDeterministic(t *testing.T) {
	const shards, feeds = 4, 18
	path := t.TempDir() + "/closed.k2cl"
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < feeds; i++ {
		c := model.NewConvoy(model.NewObjSet(int32(i), int32(i+100)), 0, 4)
		if err := l.AppendRecord(storage.LoggedConvoy{Feed: fmt.Sprintf("feed-%d", i), Convoy: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	start := func() ([]int, map[string]int) {
		srv, err := New(Config{Params: gapParams, Shards: shards, PersistPath: path})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		checkResidentCounts(t, srv)
		placed := map[string]int{}
		for name, f := range srv.feeds { // no request has been served: nothing races
			placed[name] = f.shard
		}
		return shardFeeds(srv), placed
	}
	counts, placed := start()
	if len(placed) != feeds || slices.Max(counts)-slices.Min(counts) > 1 {
		t.Fatalf("recovered %d feeds as %v per shard, want %d balanced within 1", len(placed), counts, feeds)
	}
	for run := 0; run < 4; run++ {
		againCounts, again := start()
		if !slices.Equal(againCounts, counts) || !maps.Equal(again, placed) {
			t.Fatalf("restart %d placed the same log differently:\n%v %v\n%v %v", run, counts, placed, againCounts, again)
		}
	}
}
