package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// testParams matches the minetest scenario calibration.
var testParams = convoy.Params{M: 3, K: 4, Eps: minetest.Eps}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Params == (convoy.Params{}) {
		cfg.Params = testParams
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// readConvoyLog reads every record of a convoy log. It is strict where
// ScanConvoyLog is lenient: a log ending inside a record fails the test.
func readConvoyLog(t *testing.T, path string) []storage.LoggedConvoy {
	t.Helper()
	var recs []storage.LoggedConvoy
	end, err := storage.ScanConvoyLog(path, func(r storage.LoggedConvoy) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != end {
		t.Fatalf("convoy log %s: complete records end at byte %d of %d", path, end, st.Size())
	}
	return recs
}

// snapshotsOf converts dataset ticks [ts, te] into wire snapshots.
func snapshotsOf(ds *model.Dataset, ts, te int32) []snapshotJSON {
	var out []snapshotJSON
	for tt := ts; tt <= te; tt++ {
		sn := snapshotJSON{T: tt}
		for _, p := range ds.Snapshot(tt) {
			sn.Positions = append(sn.Positions, positionJSON{OID: p.OID, X: p.X, Y: p.Y})
		}
		out = append(out, sn)
	}
	return out
}

// ingestDataset streams a dataset into a feed in batches of batchTicks.
func ingestDataset(t *testing.T, base, feed string, ds *model.Dataset, batchTicks int) {
	t.Helper()
	ts, te := ds.TimeRange()
	snaps := snapshotsOf(ds, ts, te)
	for i := 0; i < len(snaps); i += batchTicks {
		end := min(i+batchTicks, len(snaps))
		code, body := postJSON(t, base+"/v1/feeds/"+feed+"/ingest",
			ingestRequest{Snapshots: snaps[i:end]})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: status %d: %s", feed, code, body)
		}
	}
}

// flushFeed flushes a feed and returns the final maximal convoy set.
func flushFeed(t *testing.T, base, feed string) []model.Convoy {
	t.Helper()
	code, body := postJSON(t, base+"/v1/feeds/"+feed+"/flush", nil)
	if code != http.StatusOK {
		t.Fatalf("flush %s: status %d: %s", feed, code, body)
	}
	var resp convoysResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Flushed {
		t.Fatalf("flush %s: response not flushed", feed)
	}
	out := make([]model.Convoy, 0, len(resp.Convoys))
	for _, c := range resp.Convoys {
		out = append(out, model.Convoy{Objs: model.NewObjSet(c.Objs...), Start: c.Start, End: c.End})
	}
	return out
}

func batchPCCD(t *testing.T, ds *model.Dataset) []model.Convoy {
	t.Helper()
	res, err := convoy.MineDataset(ds, testParams, &convoy.Options{Algorithm: convoy.PCCD})
	if err != nil {
		t.Fatal(err)
	}
	return res.Convoys
}

func TestServeSingleFeedMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	ds := minetest.Random(1, 10, 16)
	ingestDataset(t, ts.URL, "tokyo", ds, 3)
	got := flushFeed(t, ts.URL, "tokyo")
	want := batchPCCD(t, ds)
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("served %v != batch %v", got, want)
	}
}

// TestConcurrentFeeds serves 12 concurrent feeds (the acceptance bar is 8)
// and checks every feed's flushed output equals its batch-mined reference —
// per-feed determinism under concurrency. Run under -race in CI.
func TestConcurrentFeeds(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4, QueueLen: 16})
	const feeds = 12
	var wg sync.WaitGroup
	errs := make(chan error, feeds)
	for i := 0; i < feeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feed := fmt.Sprintf("region-%d", i)
			ds := minetest.Random(int64(i), 10, 15)
			rng := rand.New(rand.NewSource(int64(i) * 77))
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

// TestReorderWindow shuffles each dataset's ticks within a bounded distance
// of their in-order position and serves them through a matching reordering
// window; the output must equal the in-order batch reference.
func TestReorderWindow(t *testing.T) {
	const window = 5
	_, ts := newTestServer(t, Config{Shards: 2, Window: window})
	ds := minetest.Random(7, 10, 20)
	dts, dte := ds.TimeRange()
	snaps := snapshotsOf(ds, dts, dte)
	// Bounded shuffle: permute within consecutive blocks of `window` ticks,
	// so no tick is preceded by a tick ≥ window ahead of it and nothing can
	// fall behind the watermark.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < len(snaps); i += window {
		block := snaps[i:min(i+window, len(snaps))]
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	for _, sn := range snaps {
		code, body := postJSON(t, ts.URL+"/v1/feeds/shuffled/ingest",
			ingestRequest{Snapshots: []snapshotJSON{sn}})
		if code != http.StatusAccepted {
			t.Fatalf("ingest: status %d: %s", code, body)
		}
	}
	got := flushFeed(t, ts.URL, "shuffled")
	want := batchPCCD(t, ds)
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("reordered serve %v != batch %v", got, want)
	}
}

// TestLateSnapshotsDropped sends a snapshot behind the watermark and checks
// it is counted as late, not mined.
func TestLateSnapshotsDropped(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1})
	for _, tt := range []int32{0, 1, 2} {
		postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: []snapshotJSON{{T: tt}}})
	}
	postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: []snapshotJSON{{T: 1}}}) // late
	flushFeed(t, ts.URL, "f")
	st := srv.Stats()
	fs := st.Feeds["f"]
	if fs.LateDropped != 1 {
		t.Fatalf("LateDropped = %d, want 1 (stats: %+v)", fs.LateDropped, fs)
	}
	if fs.TicksMined != 3 {
		t.Fatalf("TicksMined = %d, want 3", fs.TicksMined)
	}
}

// TestGapClosesConvoysLongPoll checks the streaming contract end to end: a
// timestamp gap closes the open convoy, and a long-poll on the convoys
// endpoint sees it without flushing the feed.
func TestGapClosesConvoysLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Params: convoy.Params{M: 2, K: 3, Eps: minetest.Eps}, Shards: 2})
	pair := []positionJSON{{OID: 1, X: 0}, {OID: 2, X: 1}}
	var snaps []snapshotJSON
	for _, tt := range []int32{0, 1, 2, 3, 4} {
		snaps = append(snaps, snapshotJSON{T: tt, Positions: pair})
	}
	snaps = append(snaps, snapshotJSON{T: 100, Positions: pair}) // gap closes [0,4]
	code, body := postJSON(t, ts.URL+"/v1/feeds/gappy/ingest", ingestRequest{Snapshots: snaps})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	var resp convoysResponse
	if code := getJSON(t, ts.URL+"/v1/feeds/gappy/convoys?cursor=0&wait=5s", &resp); code != http.StatusOK {
		t.Fatalf("convoys: status %d", code)
	}
	want := model.NewConvoy(model.NewObjSet(1, 2), 0, 4)
	if len(resp.Convoys) != 1 {
		t.Fatalf("closed convoys = %+v, want exactly one", resp.Convoys)
	}
	got := model.Convoy{Objs: model.NewObjSet(resp.Convoys[0].Objs...), Start: resp.Convoys[0].Start, End: resp.Convoys[0].End}
	if !got.Equal(want) {
		t.Fatalf("closed = %v, want %v", got, want)
	}
	if resp.Flushed {
		t.Fatal("feed reported flushed before flush")
	}
}

// TestBackpressure fills a stalled shard's queue and checks ingest fails
// with 429 until the shard drains.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	srv, err := New(Config{
		Params:   testParams,
		Shards:   1,
		QueueLen: 2,
		testHook: func(int) {
			// Stall the actor on its first message until released.
			once.Do(func() { <-block })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	// First message stalls in the actor; two more fill the queue.
	saw429 := false
	for i := 0; i < 10; i++ {
		one.Snapshots[0].T = int32(i)
		code, _ := postJSON(t, ts.URL+"/v1/feeds/bp/ingest", one)
		if code == http.StatusTooManyRequests {
			saw429 = true
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("ingest %d: unexpected status %d", i, code)
		}
	}
	if !saw429 {
		t.Fatal("never saw 429 with a stalled shard and QueueLen=2")
	}
	close(block) // drain
	// The flush needs a queue slot like any ingest; without the wait it
	// races the actor's first dequeue and is itself answered 429.
	waitFor(t, time.Second, "a free queue slot", func() bool { return srv.Stats().Shards[0].QueueLen < 2 })
	flushFeed(t, ts.URL, "bp")
	if st := srv.Stats(); st.Shards[0].QueueLen != 0 {
		t.Fatalf("queue not drained: %+v", st.Shards[0])
	}
}

// TestPersistSink checks the periodic persistence path: closed convoys land
// in the convoy log, and Close writes the tail.
func TestPersistSink(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	srv, err := New(Config{
		Params:       convoy.Params{M: 2, K: 3, Eps: minetest.Eps},
		Shards:       2,
		PersistPath:  path,
		PersistEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pair := []positionJSON{{OID: 1, X: 0}, {OID: 2, X: 1}}
	var snaps []snapshotJSON
	for _, tt := range []int32{0, 1, 2, 3, 4} {
		snaps = append(snaps, snapshotJSON{T: tt, Positions: pair})
	}
	postJSON(t, ts.URL+"/v1/feeds/persisted/ingest", ingestRequest{Snapshots: snaps})
	want := flushFeed(t, ts.URL, "persisted")
	if len(want) == 0 {
		t.Fatal("expected at least one convoy")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readConvoyLog(t, path)
	got := make([]model.Convoy, 0, len(recs))
	for _, r := range recs {
		if r.Feed != "persisted" {
			t.Fatalf("unexpected feed %q in sink", r.Feed)
		}
		if storage.IsMarker(r.Convoy) {
			continue // terminal-state sentinel, not a convoy
		}
		got = append(got, r.Convoy)
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("sink %v != flushed %v", got, want)
	}
}

// TestFlushSemantics: flush is idempotent, and ingest after flush is 409.
func TestFlushSemantics(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	ds := minetest.Random(3, 8, 12)
	ingestDataset(t, ts.URL, "done", ds, 4)
	first := flushFeed(t, ts.URL, "done")
	second := flushFeed(t, ts.URL, "done")
	if !model.ConvoysEqual(first, second) {
		t.Fatalf("flush not idempotent: %v then %v", first, second)
	}
	code, _ := postJSON(t, ts.URL+"/v1/feeds/done/ingest",
		ingestRequest{Snapshots: []snapshotJSON{{T: 999}}})
	if code != http.StatusConflict {
		t.Fatalf("ingest after flush: status %d, want 409", code)
	}
}

func TestUnknownFeedAndBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	if code := getJSON(t, ts.URL+"/v1/feeds/nope/convoys", nil); code != http.StatusNotFound {
		t.Fatalf("unknown feed convoys: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/nope/flush", nil); code != http.StatusNotFound {
		t.Fatalf("unknown feed flush: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/feeds/f/ingest", "application/json",
		bytes.NewBufferString(`{"snapshots":[{"t":0,"positions":[{"oid":1,"x":1e999}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-finite coordinate: status %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}

// TestFeedLimit: creating feeds beyond MaxFeeds fails with 429 while
// existing feeds keep working.
func TestFeedLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, MaxFeeds: 2})
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 0, Positions: []positionJSON{{OID: 1}}}}}
	for _, feed := range []string{"a", "b"} {
		if code, body := postJSON(t, ts.URL+"/v1/feeds/"+feed+"/ingest", one); code != http.StatusAccepted {
			t.Fatalf("feed %s: status %d: %s", feed, code, body)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/c/ingest", one); code != http.StatusTooManyRequests {
		t.Fatalf("feed beyond cap: status %d, want 429", code)
	}
	one.Snapshots[0].T = 1
	if code, _ := postJSON(t, ts.URL+"/v1/feeds/a/ingest", one); code != http.StatusAccepted {
		t.Fatal("existing feed rejected after cap hit")
	}
}

// TestStatsEndpoint smoke-tests /v1/stats JSON.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3})
	ds := minetest.Random(5, 8, 10)
	ingestDataset(t, ts.URL, "statsy", ds, 5)
	flushFeed(t, ts.URL, "statsy")
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(st.Shards))
	}
	fs, ok := st.Feeds["statsy"]
	if !ok || fs.TicksMined == 0 {
		t.Fatalf("missing feed stats: %+v", st.Feeds)
	}
}
