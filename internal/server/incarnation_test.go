package server

// TTL eviction ends a feed's incarnation: the sweep logs an eviction marker
// and syncs it before the name can start a new incarnation, and recovery
// folds the log one incarnation at a time. These tests pin that a restart
// restores what was resident at shutdown — an evicted name stays evicted,
// a recreated one starts unflushed and resumes nowhere — and that the
// marker always precedes the next incarnation's records.

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// settle waits until every resident feed's queued messages are processed.
func settle(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, 5*time.Second, "shard queues to drain", func() bool {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		for _, f := range srv.feeds {
			if f.pending.Load() != 0 {
				return false
			}
		}
		return true
	})
}

// evictFeed makes srv's closed patterns durable and sweeps, with the clock
// an hour ahead, until name is no longer resident.
func evictFeed(t *testing.T, srv *Server, name string) {
	t.Helper()
	waitFor(t, 5*time.Second, "eviction of "+name, func() bool {
		srv.persistAll()
		srv.sweep(time.Now().Add(time.Hour))
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return srv.feeds[name] == nil
	})
}

// startServer starts a server and its HTTP front end on cfg.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

// stopServer closes the HTTP front end and the server, which persists
// every closed pattern.
func stopServer(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func logSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestIncarnationFlushedLatchRestart: a flushed feed is evicted and its
// name ingested again. The new incarnation was never flushed, so after a
// restart ingest to the name answers 202, not 409 feed_flushed.
func TestIncarnationFlushedLatchRestart(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: 10 * time.Millisecond,
		FeedTTL: 30 * time.Millisecond}
	srv1, ts1 := startServer(t, cfg)
	postJSON(t, ts1.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	flushFeed(t, ts1.URL, "x")
	waitFor(t, 5*time.Second, "eviction of x", func() bool {
		_, ok := srv1.Stats().Feeds["x"]
		return !ok
	})
	// The second incarnation closes one convoy, so it is logged.
	if code, body := postJSON(t, ts1.URL+"/v1/feeds/x/ingest",
		ingestRequest{Snapshots: gapSnapshots(3, 4)[:6]}); code != http.StatusAccepted {
		t.Fatalf("ingest to the evicted name: status %d: %s", code, body)
	}
	settle(t, srv1)
	stopServer(t, srv1, ts1)

	cfg.FeedTTL = 0
	srv2, ts2 := startServer(t, cfg)
	defer stopServer(t, srv2, ts2)
	one := ingestRequest{Snapshots: []snapshotJSON{{T: 300, Positions: []positionJSON{{OID: 3}, {OID: 4, X: 1}}}}}
	if code, body := postJSON(t, ts2.URL+"/v1/feeds/x/ingest", one); code != http.StatusAccepted {
		t.Fatalf("ingest after the restart: status %d: %s, want 202", code, body)
	}
}

// TestIncarnationStaleResumeRestart: incarnation 1 of x logs ({1,2},[0,4])
// and ({1,2},[100,104]) and is evicted. Incarnation 2 restarts its clock at
// 0 and closes nothing before a restart. Re-sending its ticks 0–4 and a
// tick 50 must publish and log ({3,4},[0,4]): incarnation 1's End tick 104
// is no resume point of incarnation 2.
func TestIncarnationStaleResumeRestart(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: time.Hour}
	srv1, ts1 := startServer(t, cfg)
	postJSON(t, ts1.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	settle(t, srv1)
	evictFeed(t, srv1, "x")
	second := gapSnapshots(3, 4)[:5] // ticks 0–4
	if code, body := postJSON(t, ts1.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: second}); code != http.StatusAccepted {
		t.Fatalf("ingest incarnation 2: status %d: %s", code, body)
	}
	settle(t, srv1)
	stopServer(t, srv1, ts1)
	before := logMultiset(t, path)

	srv2, ts2 := startServer(t, cfg)
	replay := append(slices.Clone(second), snapshotJSON{T: 50, Positions: second[0].Positions})
	if code, body := postJSON(t, ts2.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: replay}); code != http.StatusAccepted {
		t.Fatalf("replay: status %d: %s", code, body)
	}
	settle(t, srv2)
	if got := srv2.Stats().Feeds["x"].ClosedTotal; got != 3 {
		t.Fatalf("closed_total = %d after the replay, want 3", got)
	}
	stopServer(t, srv2, ts2)
	want := maps.Clone(before)
	want["x|"+model.NewConvoy(model.NewObjSet(3, 4), 0, 4).Key()] = 1
	if got := logMultiset(t, path); !maps.Equal(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
}

// TestIncarnationTornTailResume: f's first incarnation logs three convoys
// ending at tick 9, its second two, and the log is torn inside the second
// incarnation's last record. The recovered feed resumes at the second
// incarnation's one intact record alone — not the first incarnation's,
// which include the torn one — so the exact replay logs the torn record
// again.
func TestIncarnationTornTailResume(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: time.Hour}
	stream := pairSnapshots(0, 10, 9, 9) // pairs 0 and 1 close [0,9] at tick 10
	srv, ts := startServer(t, cfg)
	postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: pairSnapshots(0, 10, 9, 9, 9)})
	settle(t, srv)
	evictFeed(t, srv, "f")
	postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: stream})
	settle(t, srv)
	stopServer(t, srv, ts)
	var offs []int64
	if _, err := storage.ScanConvoyLogFrom(path, 0, func(off int64, _ storage.LoggedConvoy) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(offs) != 6 {
		t.Fatalf("log holds %d records, want 3, a marker and 2", len(offs))
	}
	if err := os.Truncate(path, offs[5]+5); err != nil {
		t.Fatal(err)
	}

	runFeedOnce(t, path, stream)
	var second []string
	for _, r := range readConvoyLog(t, path)[4:] {
		second = append(second, convoyKey(r.Convoy.Start, r.Convoy.End, r.Convoy.Objs...))
	}
	if want := []string{convoyKey(0, 9, 1, 2), convoyKey(0, 9, 3, 4)}; !slices.Equal(second, want) {
		t.Fatalf("the second incarnation logs %q after the replay, want %q", second, want)
	}
}

// TestIncarnationEvictedStaysEvicted: a name evicted before shutdown is not
// resident after a restart — 404, not counted by recovered_feeds — and a
// second start over the same log restores the same feeds and appends
// nothing. Recreating the name continues its cursor domain at its logged
// record count, and its eviction marker precedes the new incarnation's
// first record.
func TestIncarnationEvictedStaysEvicted(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: time.Hour}
	srv1, ts1 := startServer(t, cfg)
	postJSON(t, ts1.URL+"/v1/feeds/gone/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	settle(t, srv1)
	evictFeed(t, srv1, "gone")
	postJSON(t, ts1.URL+"/v1/feeds/kept/ingest", ingestRequest{Snapshots: gapSnapshots(3, 4)})
	settle(t, srv1)
	stopServer(t, srv1, ts1)
	size := logSize(t, path)

	var feeds []string
	for start := 0; start < 2; start++ {
		srv, ts := startServer(t, cfg)
		st := srv.Stats()
		if m := st.Memory; m.RecoveredFeeds != 1 || m.RecoveredConvoys != 4 {
			t.Fatalf("start %d recovered %d feeds / %d records, want 1 / 4", start, m.RecoveredFeeds, m.RecoveredConvoys)
		}
		got := slices.Sorted(maps.Keys(st.Feeds))
		if start == 0 {
			feeds = got
		}
		if !slices.Equal(got, []string{"kept"}) || !slices.Equal(got, feeds) {
			t.Fatalf("start %d restored %v, want [kept] both times", start, got)
		}
		if code := getJSON(t, ts.URL+"/v1/feeds/gone/convoys?cursor=2", nil); code != http.StatusNotFound {
			t.Fatalf("start %d: GET the evicted feed: status %d, want 404", start, code)
		}
		if start == 1 {
			if code, body := postJSON(t, ts.URL+"/v1/feeds/gone/ingest",
				ingestRequest{Snapshots: gapSnapshots(5, 6)[:6]}); code != http.StatusAccepted {
				t.Fatalf("recreate: status %d: %s", code, body)
			}
			settle(t, srv)
			if fs := srv.Stats().Feeds["gone"]; fs.ClosedTotal != 3 || fs.TruncatedBefore != 2 {
				t.Fatalf("recreated feed: closed_total %d, truncated_before %d, want 3 and 2", fs.ClosedTotal, fs.TruncatedBefore)
			}
		}
		stopServer(t, srv, ts)
		if got := logSize(t, path); start == 0 && got != size {
			t.Fatalf("a start that changed nothing grew the log from %d to %d bytes", size, got)
		}
	}
	var gone []string
	for _, r := range readConvoyLog(t, path) {
		switch {
		case r.Feed != "gone":
		case storage.IsMarker(r.Convoy):
			gone = append(gone, fmt.Sprint("marker ", r.Convoy.End))
		default:
			gone = append(gone, r.Convoy.Key())
		}
	}
	want := []string{"0:4:1,2", "100:104:1,2", fmt.Sprint("marker ", storage.EvictMarker().End), "0:4:5,6"}
	if !slices.Equal(gone, want) {
		t.Fatalf("log records of feed gone: %q, want %q", gone, want)
	}
}

// TestIncarnationEvictionCheckpointsArchive: a sweep that logs eviction
// markers also moves the archive's index watermark past them, so a clean
// Close leaves META at the log's end.
func TestIncarnationEvictionCheckpointsArchive(t *testing.T) {
	cfg := restartConfig(t.TempDir())
	cfg.Params, cfg.PersistEvery = gapParams, time.Hour
	srv, ts := startServer(t, cfg)
	postJSON(t, ts.URL+"/v1/feeds/x/ingest", ingestRequest{Snapshots: gapSnapshots(1, 2)})
	settle(t, srv)
	evictFeed(t, srv, "x")
	stopServer(t, srv, ts)
	data, err := os.ReadFile(filepath.Join(cfg.ArchiveDir, "META"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Offset int64 `json:"offset"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if size := logSize(t, cfg.PersistPath); meta.Offset != size {
		t.Fatalf("META's watermark is at byte %d of a %d-byte log", meta.Offset, size)
	}
}

// TestIncarnationTrimLogsEvictions: the MaxFeeds trim at startup evicts the
// names it drops, markers included, so a second start restores the same
// feeds and appends nothing, and a larger cap does not bring them back.
func TestIncarnationTrimLogsEvictions(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	var recs []storage.LoggedConvoy
	for i := 0; i < 5; i++ {
		c := model.NewConvoy(model.NewObjSet(int32(i), int32(i+100)), 0, 4)
		recs = append(recs, storage.LoggedConvoy{Feed: fmt.Sprintf("old-%d", i), Convoy: c})
	}
	writeConvoyLog(t, path, recs)
	var size int64
	for i, maxFeeds := range []int{2, 2, 10} {
		srv, err := New(Config{Params: gapParams, Shards: 1, PersistPath: path, MaxFeeds: maxFeeds})
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Sorted(maps.Keys(srv.Stats().Feeds))
		srv.mu.RLock()
		tomb := srv.tombs["old-0"]
		srv.mu.RUnlock()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []string{"old-3", "old-4"}) || tomb != 1 {
			t.Fatalf("start %d restored %v with old-0's tomb at %d, want [old-3 old-4] and 1", i, got, tomb)
		}
		if i == 0 {
			size = logSize(t, path)
		} else if got := logSize(t, path); got != size {
			t.Fatalf("start %d grew the log from %d to %d bytes", i, size, got)
		}
	}
	var markers []string
	for _, r := range readConvoyLog(t, path) {
		if storage.IsMarker(r.Convoy) {
			markers = append(markers, r.Feed)
		}
	}
	if want := []string{"old-0", "old-1", "old-2"}; !slices.Equal(slices.Sorted(slices.Values(markers)), want) {
		t.Fatalf("the trim logged markers for %v, want %v", markers, want)
	}
}
