package server

// Lifecycle seams of a feed's mining state on churn-heavy data, where
// objects join and leave mid-stream. A feed's PatternMiner carries open
// convoy candidates across ticks; that state is deliberately not persisted
// — eviction drops it, crash recovery restarts it empty — so these tests
// pin down that every teardown/restart seam still produces convoys
// byte-identical to the batch oracle. The concurrent variant runs under
// -race in CI: shards must never share a feed's miner.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/minetest"
	"repro/internal/model"
)

// churnSnapshots converts a dataset's ticks into wire snapshots with a
// timestamp offset, so one dataset can be streamed twice into a feed with a
// convoy-closing gap in between.
func churnSnapshots(ds *model.Dataset, offset int32) []snapshotJSON {
	ts, te := ds.TimeRange()
	out := snapshotsOf(ds, ts, te)
	for i := range out {
		out[i].T += offset
	}
	return out
}

// TestEvictRecreateChurnMatchesBatch: a feed whose miner was torn down by
// TTL eviction and whose client then replays from scratch must mine
// exactly the batch result — the recreated feed starts from an empty
// miner.
func TestEvictRecreateChurnMatchesBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Shards:  2,
		FeedTTL: 40 * time.Millisecond,
	})
	ds := minetest.RandomChurn(2, 12, 20)

	// First incarnation builds up open candidates, then goes idle.
	ingestDataset(t, ts.URL, "churn", ds, 3)
	waitFor(t, 5*time.Second, "feed eviction", func() bool {
		_, ok := srv.Stats().Feeds["churn"]
		return !ok
	})

	// Second incarnation replays the same feed from t=0 and must match the
	// batch oracle exactly.
	ingestDataset(t, ts.URL, "churn", ds, 3)
	got := flushFeed(t, ts.URL, "churn")
	want := batchPCCD(t, ds)
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("post-eviction replay %v != batch %v", got, want)
	}
}

// TestRestartRecoveryChurnReplay is the crash round-trip on churn data: the
// recovered feed's miner restarts empty, a client replays the full history, and the final convoys
// equal the batch reference while the log gains no duplicate records.
func TestRestartRecoveryChurnReplay(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: testParams, Shards: 2, PersistPath: path, PersistEvery: 10 * time.Millisecond}
	ds := minetest.RandomChurn(2, 12, 20)
	// The full feed is the dataset streamed twice with a gap: the gap closes
	// the first pass's convoys, so some history is persisted pre-crash.
	full := append(churnSnapshots(ds, 0), churnSnapshots(ds, 100)...)

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	// Crash happens mid-stream: only the first pass plus a bit of the second
	// reaches the server.
	cut := len(churnSnapshots(ds, 0)) + 3
	if code, body := postJSON(t, ts1.URL+"/v1/feeds/churn/ingest",
		ingestRequest{Snapshots: full[:cut]}); code != http.StatusAccepted {
		t.Fatalf("pre-crash ingest: status %d: %s", code, body)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	before := logMultiset(t, path)
	if len(before) == 0 {
		t.Fatal("nothing persisted before the crash")
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if feeds := srv2.Stats().Memory.RecoveredFeeds; feeds != 1 {
		t.Fatalf("recovered %d feeds, want 1", feeds)
	}
	// Replay everything from t=0 (the recovered miner accepts any timestamp)
	// and finish the stream.
	if code, body := postJSON(t, ts2.URL+"/v1/feeds/churn/ingest",
		ingestRequest{Snapshots: full}); code != http.StatusAccepted {
		t.Fatalf("replay ingest: status %d: %s", code, body)
	}
	got := flushFeed(t, ts2.URL, "churn")
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// The oracle: batch-mine the doubled dataset.
	var pts []model.Point
	for _, sn := range full {
		for _, p := range sn.Positions {
			pts = append(pts, model.Point{OID: p.OID, T: sn.T, X: p.X, Y: p.Y})
		}
	}
	want := batchPCCD(t, model.NewDataset(pts))
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("recovered replay %v != batch %v", got, want)
	}

	// Durability: nothing lost, nothing duplicated.
	after := logMultiset(t, path)
	for k, n := range after {
		if n != 1 {
			t.Fatalf("record %q appears %d times after replay", k, n)
		}
	}
	for k := range before {
		if after[k] != 1 {
			t.Fatalf("record %q lost across restart", k)
		}
	}
}

// TestConcurrentFeedsChurn is the -race soak for per-feed mining state: 12
// churn-heavy feeds stream concurrently through 4 shards, each shard's
// actor owning several miners, and every feed's flushed output
// must equal its batch reference.
func TestConcurrentFeedsChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4, QueueLen: 16})
	const feeds = 12
	var wg sync.WaitGroup
	errs := make(chan error, feeds)
	for i := 0; i < feeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feed := fmt.Sprintf("churn-%d", i)
			ds := minetest.RandomChurn(int64(i), 10, 15)
			rng := rand.New(rand.NewSource(int64(i) * 31))
			dts, dte := ds.TimeRange()
			snaps := snapshotsOf(ds, dts, dte)
			for j := 0; j < len(snaps); {
				n := 1 + rng.Intn(4)
				end := min(j+n, len(snaps))
				code, body := postJSON(t, ts.URL+"/v1/feeds/"+feed+"/ingest",
					ingestRequest{Snapshots: snaps[j:end]})
				if code == http.StatusTooManyRequests {
					time.Sleep(time.Millisecond) // backpressure: retry
					continue
				}
				if code != http.StatusAccepted {
					errs <- fmt.Errorf("feed %s: status %d: %s", feed, code, body)
					return
				}
				j = end
			}
			got := flushFeed(t, ts.URL, feed)
			want := batchPCCD(t, ds)
			if !model.ConvoysEqual(got, want) {
				errs <- fmt.Errorf("feed %s: served %v != batch %v", feed, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
