package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// gapParams close convoys quickly: m=2, k=3.
var gapParams = convoy.Params{M: 2, K: 3, Eps: minetest.Eps}

// gapSnapshots builds snapshots for a pair of objects (oidA, oidB) riding
// together over ticks [0,4] and [100,104], plus a lone tick 200 — the two
// gaps close exactly two convoys ([0,4] and [100,104]) without a flush.
func gapSnapshots(oidA, oidB int32) []snapshotJSON {
	pair := []positionJSON{{OID: oidA, X: 0}, {OID: oidB, X: 1}}
	var out []snapshotJSON
	for _, tt := range []int32{0, 1, 2, 3, 4, 100, 101, 102, 103, 104, 200} {
		out = append(out, snapshotJSON{T: tt, Positions: pair})
	}
	return out
}

// waitFor polls cond every ms until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIdleFeedEviction: an idle feed is evicted after FeedTTL while a feed
// kept warm by queries survives; ingest under the evicted name then starts
// a fresh feed.
func TestIdleFeedEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2, FeedTTL: 40 * time.Millisecond})
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	for _, feed := range []string{"cold", "hot"} {
		if code, body := postJSON(t, ts.URL+"/v1/feeds/"+feed+"/ingest", one); code != http.StatusAccepted {
			t.Fatalf("ingest %s: status %d: %s", feed, code, body)
		}
	}
	// Keep "hot" warm with queries (queries count as activity) until "cold"
	// is gone.
	waitFor(t, 5*time.Second, "cold feed eviction", func() bool {
		getJSON(t, ts.URL+"/v1/feeds/hot/convoys", nil)
		st := srv.Stats()
		_, coldLive := st.Feeds["cold"]
		return !coldLive
	})
	st := srv.Stats()
	if _, ok := st.Feeds["hot"]; !ok {
		t.Fatal("hot feed evicted despite constant queries")
	}
	if st.Memory.LiveFeeds != 1 || st.Memory.EvictedTotal == 0 {
		t.Fatalf("memory stats after eviction: %+v", st.Memory)
	}
	// The name is free again: ingest starts a fresh feed lifecycle.
	if code, body := postJSON(t, ts.URL+"/v1/feeds/cold/ingest", one); code != http.StatusAccepted {
		t.Fatalf("re-ingest to evicted name: status %d: %s", code, body)
	}
	if _, ok := srv.Stats().Feeds["cold"]; !ok {
		t.Fatal("re-ingest did not recreate the feed")
	}
	checkResidentCounts(t, srv)
}

// TestEvictionWaitsForPersistence: with a sink configured, a feed whose
// closed convoys have not reached the log yet must survive the TTL.
func TestEvictionWaitsForPersistence(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	srv, ts := newTestServer(t, Config{
		Params:       gapParams,
		Shards:       2,
		PersistPath:  path,
		PersistEvery: time.Hour, // persistence never runs during the test
		FeedTTL:      20 * time.Millisecond,
	})
	// "unpersisted" closes a convoy that cannot reach the sink; "bare"
	// publishes nothing, so it has nothing to lose.
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/unpersisted/ingest",
		ingestRequest{Snapshots: gapSnapshots(1, 2)}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 9}}}}}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/bare/ingest", one); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitFor(t, 5*time.Second, "bare feed eviction", func() bool {
		_, ok := srv.Stats().Feeds["bare"]
		return !ok
	})
	if _, ok := srv.Stats().Feeds["unpersisted"]; !ok {
		t.Fatal("feed with unpersisted closed convoys was evicted")
	}
}

// TestBrokenSinkKeepsHistory pins the degraded mode a failed fsync
// latches: /v1/stats reports sink_broken, later persist rounds append
// nothing, and since the durable watermark stops where the last good Sync
// left it, the feed's history past it is neither truncated nor evicted —
// every pattern stays servable from cursor 0.
func TestBrokenSinkKeepsHistory(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	srv, ts := newTestServer(t, Config{
		Params:       gapParams,
		Shards:       1,
		PersistPath:  path,
		PersistEvery: time.Hour, // the test drives persistAll itself
		FeedTTL:      20 * time.Millisecond,
	})
	headIs := func(n int) func() bool {
		return func() bool {
			fs, ok := srv.Stats().Feeds["f"]
			return ok && fs.ClosedTotal == int64(n)
		}
	}
	snaps := gapSnapshots(1, 2)
	// One good round makes the first convoy durable...
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: snaps[:6]}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitFor(t, 5*time.Second, "first convoy", headIs(1))
	srv.persistAll()
	// ...then the disk goes away under the live sink and a second convoy
	// closes: the next round's Sync fails.
	if err := srv.sink.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: snaps[6:]}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitFor(t, 5*time.Second, "second convoy", headIs(2))
	srv.persistAll()
	if !srv.Stats().SinkBroken {
		t.Fatal("a failed Sync did not latch sink_broken")
	}
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || !st.SinkBroken {
		t.Fatalf("/v1/stats: status %d, sink_broken %v", code, st.SinkBroken)
	}

	off := srv.sink.Offset()
	srv.persistAll()
	srv.sweep(time.Now().Add(time.Hour)) // every feed is idle by then
	if got := srv.sink.Offset(); got != off {
		t.Fatalf("a round after the break appended %d bytes", got-off)
	}
	var logged int
	if _, err := storage.ScanConvoyLog(path, func(storage.LoggedConvoy) error { logged++; return nil }); err != nil {
		t.Fatal(err)
	}
	if logged != 1 {
		t.Fatalf("log holds %d records, want only the 1 synced before the break", logged)
	}
	fs, ok := srv.Stats().Feeds["f"]
	if !ok {
		t.Fatal("feed with undurable history evicted while the sink is broken")
	}
	if fs.TruncatedBefore != 0 || fs.ClosedInMemory != 2 {
		t.Fatalf("feed stats %+v, want nothing truncated and 2 convoys in memory", fs)
	}
	var resp convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/f/convoys?cursor=0", &resp); code != http.StatusOK {
		t.Fatalf("cursor 0: status %d", code)
	}
	if len(resp.Convoys) != 2 || resp.Cursor != 2 {
		t.Fatalf("cursor 0: %+v, want both convoys", resp)
	}
}

// TestHistoryTruncation: once persisted, a feed's closed-convoy history
// leaves memory; stale cursors answer 410 Gone with the live domain, and a
// client that keeps up sees every convoy exactly once across truncation.
func TestHistoryTruncation(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	srv, ts := newTestServer(t, Config{
		Params:       gapParams,
		Shards:       2,
		PersistPath:  path,
		PersistEvery: 10 * time.Millisecond,
	})
	// First convoy: ticks [0,4] closed by the jump to 100.
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest",
		ingestRequest{Snapshots: gapSnapshots(1, 2)[:6]}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	var first convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/f/convoys?cursor=0&wait=5s", &first); code != http.StatusOK {
		t.Fatalf("first poll: status %d", code)
	}
	if len(first.Convoys) != 1 || first.Cursor != 1 {
		t.Fatalf("first poll: %+v, want one convoy at cursor 1", first)
	}
	waitFor(t, 5*time.Second, "history truncation", func() bool {
		fs := srv.Stats().Feeds["f"]
		return fs.TruncatedBefore == 1 && fs.ClosedInMemory == 0
	})
	// The persisted prefix is gone: cursor 0 is 410 with the live domain.
	resp, err := http.Get(ts.URL + "/v1/feeds/f/convoys?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale cursor: status %d, want 410", resp.StatusCode)
	}
	// The cursor from the first response is still live and sees exactly the
	// new convoy once more data closes it.
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest",
		ingestRequest{Snapshots: gapSnapshots(1, 2)[6:]}); code != http.StatusAccepted {
		t.Fatal("second ingest failed")
	}
	var second convoysResponse
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/feeds/f/convoys?cursor=%d&wait=5s", first.Cursor), &second); code != http.StatusOK {
		t.Fatalf("second poll: status %d", code)
	}
	if len(second.Convoys) != 1 || second.Convoys[0].Start != 100 || second.Cursor != 2 {
		t.Fatalf("second poll: %+v, want exactly the [100,104] convoy at cursor 2", second)
	}
	if st := srv.Stats(); st.Memory.TruncatedTotal == 0 {
		t.Fatalf("truncated_convoys_total not counted: %+v", st.Memory)
	}
}

// TestEvictionUnderConcurrentIngest hammers a mix of hot and intermittent
// feeds while the TTL sweep runs at full tilt: every response must be one
// of 202/410/429, evicted feeds must be transparently recreated, and the
// server must stay consistent (run under -race in CI).
func TestEvictionUnderConcurrentIngest(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Shards:   4,
		QueueLen: 8,
		FeedTTL:  20 * time.Millisecond,
	})
	const feeds = 8
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, feeds)
	for i := 0; i < feeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			feed := fmt.Sprintf("feed-%d", i)
			var tt int32
			for time.Now().Before(stop) {
				one := ingestRequest{Snapshots: []snapshotJSON{{T: tt, Positions: []positionJSON{{OID: int32(i)}}}}}
				code, body := postJSON(t, ts.URL+"/v1/feeds/"+feed+"/ingest", one)
				switch code {
				case http.StatusAccepted:
					tt++
				case http.StatusTooManyRequests, http.StatusGone:
					// Backpressure or eviction race: retry. After an
					// eviction the feed restarts at t=0 (fresh miner).
					tt = 0
				default:
					errs <- fmt.Errorf("feed %s: unexpected status %d: %s", feed, code, body)
					return
				}
				if i%2 == 1 {
					// Intermittent feeds sleep past the TTL so they get
					// evicted mid-run and recreated.
					time.Sleep(time.Duration(20+rng.Intn(20)) * time.Millisecond)
					tt = 0
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Memory.EvictedTotal == 0 {
		t.Fatal("no feed was ever evicted under a 20ms TTL with intermittent feeds")
	}
	checkResidentCounts(t, srv)
}

// TestLongPollHoldsEviction: a blocked long-poll counts as activity — the
// feed survives a wait far longer than the TTL, serves the poll normally,
// and is only collected once no one is waiting on it.
func TestLongPollHoldsEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1, FeedTTL: 30 * time.Millisecond})
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest", one); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	resp, err := http.Get(ts.URL + "/v1/feeds/f/convoys?cursor=0&wait=400ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll across >10 TTLs: status %d, want 200 (waiter must hold eviction)", resp.StatusCode)
	}
	// With the waiter gone and the feed idle, the sweep collects it.
	waitFor(t, 5*time.Second, "post-poll eviction", func() bool {
		_, ok := srv.Stats().Feeds["f"]
		return !ok
	})
}

// TestLongPollContextCancel: a canceled request releases its long-poll
// handler goroutine promptly even though the feed never progresses.
func TestLongPollContextCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest", one); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/feeds/f/convoys?cursor=0&wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("expected the canceled long-poll to error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("long-poll error: %v, want context.Canceled", err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("canceled long-poll returned after %v", took)
	}
}

// TestEnqueueContextCancel: a canceled request stops waiting for queue
// space instead of sitting out the full EnqueueWait.
func TestEnqueueContextCancel(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	srv, err := New(Config{
		Params:      testParams,
		Shards:      1,
		QueueLen:    1,
		EnqueueWait: 30 * time.Second,
		testHook: func(int) {
			once.Do(func() { <-block })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	defer close(block)

	// First message stalls the actor, second fills the queue.
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	for i := 0; i < 2; i++ {
		one.Snapshots[0].T = int32(i)
		if code, _ := postJSON(t, ts.URL+"/v1/feeds/bp/ingest", one); code != http.StatusAccepted {
			t.Fatalf("priming ingest %d failed", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	body := strings.NewReader(`{"snapshots":[{"t":9,"positions":[{"oid":1,"x":0,"y":0}]}]}`)
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/feeds/bp/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("expected the canceled ingest to error")
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("canceled ingest returned after %v (EnqueueWait ignored the context)", took)
	}
}

// logMultiset reads a convoy log into a (feed, convoy-key) → count map.
func logMultiset(t *testing.T, path string) map[string]int {
	t.Helper()
	recs := readConvoyLog(t, path)
	out := map[string]int{}
	for _, r := range recs {
		if storage.IsMarker(r.Convoy) {
			continue // terminal-state sentinel, not a persisted convoy
		}
		out[r.Feed+"|"+r.Convoy.Key()]++
	}
	return out
}

// TestRestartRecovery is the kill/restart round-trip: a restarted server
// recovers per-feed cursor positions from the log, answers 410 for the
// persisted range, and deduplicates re-ingested data so the log gains no
// duplicate records.
func TestRestartRecovery(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 2, PersistPath: path, PersistEvery: 10 * time.Millisecond}

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	postJSON(t, ts1.URL+"/v1/feeds/a/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	postJSON(t, ts1.URL+"/v1/feeds/b/ingest", ingestRequest{Snapshots: gapSnapshots(3, 4)[:6]})
	flushFeed(t, ts1.URL, "a")
	ts1.Close()
	if err := srv1.Close(); err != nil { // graceful kill: final persist
		t.Fatal(err)
	}
	before := logMultiset(t, path)
	if len(before) == 0 {
		t.Fatal("nothing persisted before restart")
	}
	for k, n := range before {
		if n != 1 {
			t.Fatalf("record %q appears %d times before restart", k, n)
		}
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if m := srv2.Stats().Memory; m.RecoveredFeeds != 2 || m.RecoveredConvoys != len(beforeTotal(before)) {
		t.Fatalf("recovered %d feeds / %d records, want 2 feeds / %d records", m.RecoveredFeeds, m.RecoveredConvoys, len(beforeTotal(before)))
	}
	// Cursor positions survived the restart: the persisted range is 410,
	// the recovered head is live.
	fsA := srv2.Stats().Feeds["a"]
	if fsA.TruncatedBefore == 0 || int64(fsA.TruncatedBefore) != fsA.ClosedTotal {
		t.Fatalf("recovered feed a stats: %+v, want truncated_before == closed_total > 0", fsA)
	}
	resp, err := http.Get(ts2.URL + "/v1/feeds/a/convoys?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("cursor 0 on recovered feed: status %d, want 410", resp.StatusCode)
	}
	var live convoysResponse
	if code := getJSON(t, ts2.URL+fmt.Sprintf("/v1/feeds/a/convoys?cursor=%d", fsA.TruncatedBefore), &live); code != http.StatusOK {
		t.Fatalf("recovered cursor: status %d", code)
	}

	// Re-ingest feed a's exact data (a client replaying after the crash)
	// and finish feed b's second convoy; only b's new convoy may be
	// appended.
	postJSON(t, ts2.URL+"/v1/feeds/a/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	postJSON(t, ts2.URL+"/v1/feeds/b/ingest", ingestRequest{Snapshots: gapSnapshots(3, 4)[6:]})
	flushFeed(t, ts2.URL, "b")
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	after := logMultiset(t, path)
	for k, n := range after {
		if n != 1 {
			t.Fatalf("record %q appears %d times after restart (duplicated)", k, n)
		}
	}
	for k := range before {
		if after[k] != 1 {
			t.Fatalf("record %q lost across restart", k)
		}
	}
	if len(after) <= len(before) {
		t.Fatalf("feed b's post-restart convoy missing: %d records before, %d after", len(before), len(after))
	}
}

// TestRestartRecoveryFlushedState: the flush sentinel makes the terminal
// flushed state survive a restart — ingest stays 409 and polls
// short-circuit with Flushed:true instead of hanging their full wait.
func TestRestartRecoveryFlushedState(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: 10 * time.Millisecond}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	postJSON(t, ts1.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	flushFeed(t, ts1.URL, "x")
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	if code, _ := postJSON(t, ts2.URL+"/v1/feeds/x/ingest",
		ingestRequest{Snapshots: []snapshotJSON{{T: 999}}}); code != http.StatusConflict {
		t.Fatalf("ingest to recovered flushed feed: status %d, want 409", code)
	}
	fs := srv2.Stats().Feeds["x"]
	begin := time.Now()
	var resp convoysResponse
	if code := getJSON(t, ts2.URL+fmt.Sprintf("/v1/feeds/x/convoys?cursor=%d&wait=20s", fs.TruncatedBefore), &resp); code != http.StatusOK {
		t.Fatalf("poll on recovered flushed feed: status %d", code)
	}
	if !resp.Flushed {
		t.Fatalf("recovered feed lost its flushed state: %+v", resp)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("flushed poll blocked %v instead of short-circuiting", took)
	}
}

// TestPersistRoundLogsFlushSentinel: one persist round appends a flushed
// feed's last records and then its flush sentinel, under one Sync; a feed
// flushed with nothing fresh gets its sentinel alone in the next round.
func TestPersistRoundLogsFlushSentinel(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	srv, ts := newTestServer(t, Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: time.Hour})
	logged := func() []string {
		var out []string
		for _, r := range readConvoyLog(t, path) {
			if storage.IsMarker(r.Convoy) {
				out = append(out, r.Feed+"|flushed")
			} else {
				out = append(out, r.Feed+"|"+r.Convoy.Key())
			}
		}
		return out
	}

	// Feed a closes two convoys and is flushed before any round runs.
	postJSON(t, ts.URL+"/v1/feeds/a/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	flushFeed(t, ts.URL, "a")
	// Feed b's convoys reach the log before its flush.
	postJSON(t, ts.URL+"/v1/feeds/b/ingest", ingestRequest{Snapshots: gapSnapshots(3, 4)})
	var resp convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/b/convoys?cursor=0&wait=5s", &resp); code != http.StatusOK || len(resp.Convoys) != 2 {
		t.Fatalf("feed b: status %d, %d convoys, want 2", code, len(resp.Convoys))
	}
	srv.persistAll()
	first := logged()
	if i := slices.Index(first, "a|flushed"); i < 1 || first[i-1] != "a|100:104:1,2" {
		t.Fatalf("feed a's sentinel does not follow its last record: %q", first)
	}
	got := slices.Sorted(slices.Values(first))
	want := []string{"a|0:4:1,2", "a|100:104:1,2", "a|flushed", "b|0:4:3,4", "b|100:104:3,4"}
	if !slices.Equal(got, want) {
		t.Fatalf("first round logged %q, want %q", got, want)
	}

	flushFeed(t, ts.URL, "b")
	srv.persistAll()
	if got := logged(); len(got) != 6 || got[5] != "b|flushed" {
		t.Fatalf("second round logged %q, want feed b's sentinel appended alone", got)
	}
	for _, name := range []string{"a", "b"} {
		f := srv.feeds[name]
		f.mu.Lock()
		done := f.flushLogged && f.durable == f.head()
		f.mu.Unlock()
		if !done {
			t.Fatalf("feed %s: flush sentinel or history not marked durable", name)
		}
	}
}

func beforeTotal(m map[string]int) []string {
	var out []string
	for k, n := range m {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	return out
}

// TestEvictRecreateContinuesCursorDomain: a feed recreated after eviction
// continues its predecessor's cursor domain, so a returning client's stale
// cursor is either still meaningful or answered 410 — never served
// silently from a restarted numbering.
func TestEvictRecreateContinuesCursorDomain(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Params: gapParams, Shards: 1,
		FeedTTL: 30 * time.Millisecond,
	})
	// First incarnation publishes one convoy (head=1), then goes idle.
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest",
		ingestRequest{Snapshots: gapSnapshots(1, 2)[:6]}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	var first convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/f/convoys?cursor=0&wait=5s", &first); code != http.StatusOK || first.Cursor != 1 {
		t.Fatalf("first incarnation poll: %+v", first)
	}
	waitFor(t, 5*time.Second, "eviction", func() bool {
		_, ok := srv.Stats().Feeds["f"]
		return !ok
	})
	// Second incarnation: new data closes one new convoy. The domain must
	// continue at 1, not restart at 0.
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest",
		ingestRequest{Snapshots: gapSnapshots(3, 4)[:6]}); code != http.StatusAccepted {
		t.Fatal("re-ingest failed")
	}
	var second convoysResponse
	if code := getJSON(t, ts.URL+fmt.Sprintf("/v1/feeds/f/convoys?cursor=%d&wait=5s", first.Cursor), &second); code != http.StatusOK {
		t.Fatalf("continued-cursor poll: status %d", code)
	}
	if second.Cursor != 2 || second.TruncatedBefore != 1 || len(second.Convoys) != 1 {
		t.Fatalf("recreated feed domain: %+v, want cursor 2, truncated_before 1, one new convoy", second)
	}
	// The predecessor's history is 410, not shadowed.
	resp, err := http.Get(ts.URL + "/v1/feeds/f/convoys?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("pre-eviction cursor: status %d, want 410", resp.StatusCode)
	}
}

// TestCursorBeyondHead: a cursor the current feed incarnation never issued
// (evict + recreate resets the domain) answers 410, never a silent rewind.
func TestCursorBeyondHead(t *testing.T) {
	_, ts := newTestServer(t, Config{Params: gapParams, Shards: 1})
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest",
		ingestRequest{Snapshots: gapSnapshots(1, 2)[:6]}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	var ok convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/f/convoys?cursor=0&wait=5s", &ok); code != http.StatusOK || ok.Cursor != 1 {
		t.Fatalf("in-domain poll: status %d, %+v", code, ok)
	}
	resp, err := http.Get(ts.URL + "/v1/feeds/f/convoys?cursor=7&wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("cursor beyond head: status %d, want 410", resp.StatusCode)
	}
}

// TestRecoveryRespectsMaxFeeds: a log naming more feeds than MaxFeeds only
// resurrects the most recently appended-to MaxFeeds of them, so restart
// memory stays bounded by configuration, not by log age.
func TestRecoveryRespectsMaxFeeds(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c := model.NewConvoy(model.NewObjSet(int32(i), int32(i+100)), 0, 4)
		if err := l.AppendRecord(storage.LoggedConvoy{Feed: fmt.Sprintf("old-%d", i), Convoy: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Params: gapParams, Shards: 1, PersistPath: path, MaxFeeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := srv.Stats()
	if m := st.Memory; m.RecoveredFeeds != 2 || m.RecoveredConvoys != 5 {
		t.Fatalf("recovered %d feeds / %d records, want 2 capped feeds / 5 replayed records", m.RecoveredFeeds, m.RecoveredConvoys)
	}
	for _, name := range []string{"old-4", "old-3"} {
		if _, ok := st.Feeds[name]; !ok {
			t.Fatalf("most recent feed %s not resurrected: %v", name, st.Feeds)
		}
	}
	if _, ok := st.Feeds["old-0"]; ok {
		t.Fatal("oldest feed resurrected past the MaxFeeds cap")
	}
	// Dropped feeds are tombstoned: recreating one continues its logged
	// cursor domain instead of restarting at 0.
	srv.mu.RLock()
	tomb := srv.tombs["old-0"]
	srv.mu.RUnlock()
	if tomb != 1 {
		t.Fatalf("dropped feed tombstone = %d, want its 1 logged record", tomb)
	}
}

// TestSoakLifecycle is the acceptance soak: many feeds ingest and go idle,
// TTL eviction and history truncation shrink the resident state to nothing
// (stats prove it), and a kill/restart round-trip neither loses nor
// duplicates any persisted convoy.
func TestSoakLifecycle(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{
		Params:       gapParams,
		Shards:       4,
		PersistPath:  path,
		PersistEvery: 5 * time.Millisecond,
		FeedTTL:      60 * time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	const feeds = 12
	for i := 0; i < feeds; i++ {
		name := fmt.Sprintf("soak-%d", i)
		code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/ingest",
			ingestRequest{Snapshots: gapSnapshots(int32(2*i+1), int32(2*i+2))})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: status %d: %s", name, code, body)
		}
		if i%2 == 0 {
			flushFeed(t, ts.URL, name)
		}
	}
	peak := srv.Stats()
	if peak.Memory.LiveFeeds != feeds {
		t.Fatalf("live feeds at peak = %d, want %d", peak.Memory.LiveFeeds, feeds)
	}
	// Bounded memory: every feed goes idle, so truncation drains the
	// resident history and eviction drains the feed table entirely.
	waitFor(t, 10*time.Second, "truncation and eviction to drain resident state", func() bool {
		st := srv.Stats()
		return st.Memory.ClosedInMemory == 0 && st.Memory.LiveFeeds == 0
	})
	st := srv.Stats()
	if st.Memory.EvictedTotal != feeds {
		t.Fatalf("evicted_feeds_total = %d, want %d", st.Memory.EvictedTotal, feeds)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Durability: the log holds each feed's two convoys exactly once.
	before := logMultiset(t, path)
	for i := 0; i < feeds; i++ {
		name := fmt.Sprintf("soak-%d", i)
		found := 0
		for k := range before {
			if strings.HasPrefix(k, name+"|") {
				found += before[k]
			}
		}
		if found != 2 {
			t.Fatalf("feed %s: %d persisted convoys, want 2 (log: %v)", name, found, before)
		}
	}

	// Kill/restart round-trip: every feed was evicted before the shutdown,
	// so the restart restores none of them and tombstones each at its 2
	// logged convoys. Replaying one feed's full data starts a new
	// incarnation that continues the cursor domain, and its records are
	// its own: the log gains that feed's two convoys once more, after its
	// eviction marker. (FeedTTL off on the second incarnation so the
	// replay cannot race an eviction.)
	cfg.FeedTTL = 0
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if m := srv2.Stats().Memory; m.RecoveredFeeds != 0 || m.RecoveredConvoys != 2*feeds {
		t.Fatalf("recovered %d feeds / %d records, want 0 / %d", m.RecoveredFeeds, m.RecoveredConvoys, 2*feeds)
	}
	postJSON(t, ts2.URL+"/v1/feeds/soak-1/ingest", ingestRequest{Snapshots: gapSnapshots(3, 4)})
	flushFeed(t, ts2.URL, "soak-1")
	if fs := srv2.Stats().Feeds["soak-1"]; fs.ClosedTotal != 4 {
		t.Fatalf("recreated soak-1: closed_total %d, want 4", fs.ClosedTotal)
	}
	checkResidentCounts(t, srv2)
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	after := logMultiset(t, path)
	if len(after) != len(before) {
		t.Fatalf("log changed across restart+replay: %d unique records, want %d", len(after), len(before))
	}
	for k, n := range before {
		if strings.HasPrefix(k, "soak-1|") {
			n *= 2
		}
		if after[k] != n {
			t.Fatalf("record %q appears %d times after the replay, want %d", k, after[k], n)
		}
	}
}
