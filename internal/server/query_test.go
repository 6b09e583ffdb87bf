package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/archive"
)

// convoySnapshots builds ticks [0, n) with objects 1..size moving in a
// tight clump (a convoy under testParams) plus a lone straggler far away.
func convoySnapshots(n int, size int) []snapshotJSON {
	out := make([]snapshotJSON, 0, n)
	for t := 0; t < n; t++ {
		sn := snapshotJSON{T: int32(t)}
		for oid := 1; oid <= size; oid++ {
			sn.Positions = append(sn.Positions, positionJSON{
				OID: int32(oid), X: float64(t) * 10, Y: float64(oid) * 0.1})
		}
		sn.Positions = append(sn.Positions, positionJSON{OID: 999, X: -1e6, Y: 1e6})
		out = append(out, sn)
	}
	return out
}

// archiveTestServer starts a server with persistence + archive under a
// temp dir and a fast persist tick.
func archiveTestServer(t *testing.T, mutate func(*Config)) (*Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		Shards:       2,
		PersistPath:  filepath.Join(dir, "closed.k2cl"),
		PersistEvery: 25 * time.Millisecond,
		ArchiveDir:   filepath.Join(dir, "archive"),
		EnqueueWait:  time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, ts := newTestServer(t, cfg)
	return srv, ts.URL, cfg.PersistPath
}

// waitForQuery polls url until the response has at least want convoys.
func waitForQuery(t *testing.T, url string, want int) queryResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resp queryResponse
		if code := getJSON(t, url, &resp); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if len(resp.Convoys) >= want {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: still %d convoys, want ≥ %d", url, len(resp.Convoys), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueryEndpoints(t *testing.T) {
	_, base, _ := archiveTestServer(t, nil)

	// A 6-tick convoy of objects {1,2,3}; the flush closes it, the persist
	// tick logs it, the archiver indexes it.
	code, body := postJSON(t, base+"/v1/feeds/q/ingest",
		ingestRequest{Snapshots: convoySnapshots(6, 3)})
	if code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", code, body)
	}
	flushFeed(t, base, "q")

	resp := waitForQuery(t, base+"/v1/query/object?oid=2", 1)
	found := false
	for _, c := range resp.Convoys {
		if c.Feed == "q" && len(c.Objs) == 3 && c.Start == 0 && c.End == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("object query did not return the {1,2,3}×[0,5] convoy: %+v", resp.Convoys)
	}

	// The same convoy through the time index…
	resp = waitForQuery(t, base+"/v1/query/time?from=2&to=3", 1)
	if len(resp.Convoys) == 0 || resp.Convoys[0].End != 5 {
		t.Fatalf("time query: %+v", resp.Convoys)
	}
	// …but not outside its lifespan.
	var miss queryResponse
	if code := getJSON(t, base+"/v1/query/time?from=50&to=90", &miss); code != http.StatusOK {
		t.Fatalf("time query: %d", code)
	}
	if len(miss.Convoys) != 0 {
		t.Fatalf("time query outside the lifespan returned %+v", miss.Convoys)
	}

	// Size/duration predicates through /v1/query/convoys.
	resp = waitForQuery(t, base+"/v1/query/convoys?min_size=3&min_dur=6", 1)
	if len(resp.Convoys) == 0 {
		t.Fatal("convoys query with satisfied predicates found nothing")
	}
	if code := getJSON(t, base+"/v1/query/convoys?min_size=4", &miss); code != http.StatusOK {
		t.Fatal("convoys query failed")
	}
	if len(miss.Convoys) != 0 {
		t.Fatalf("min_size=4 matched a 3-object convoy: %+v", miss.Convoys)
	}

	// Bad parameters are 400s.
	for _, bad := range []string{
		"/v1/query/time?from=zebra",
		"/v1/query/time?from=9&to=3",
		"/v1/query/object",
		"/v1/query/object?oid=big",
		"/v1/query/convoys?min_size=-1",
		"/v1/query/convoys?limit=99999999",
		"/v1/query/convoys?cursor=xyz",
	} {
		if code := getJSON(t, base+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", bad, code)
		}
	}

	// The stats payload gains an archive section.
	var st Stats
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Archive == nil || st.Archive.Records == 0 || st.Archive.QueriesTotal == 0 {
		t.Fatalf("stats archive section: %+v", st.Archive)
	}
}

// TestPersistRoundIndexesArchive pins the archive's freshness: the persist
// round that makes convoys durable in the log also indexes them, so when
// persistAll returns every convoy record of the log is queryable — no
// polling, no queue between the log and the indexes. The persist tick is
// an hour, so each round here is the test's own; every round closes one
// more feed's convoy by a gap.
func TestPersistRoundIndexesArchive(t *testing.T) {
	srv, base, logPath := archiveTestServer(t, func(c *Config) { c.PersistEvery = time.Hour })
	for round := range 20 {
		feed := fmt.Sprintf("f%d", round)
		snaps := convoySnapshots(6, 3+round%4)
		gap := snaps[len(snaps)-1]
		gap.T = 100 // the gap closes the clump's convoy
		code, body := postJSON(t, base+"/v1/feeds/"+feed+"/ingest",
			ingestRequest{Snapshots: append(snaps, gap)})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", feed, code, body)
		}
		var closed convoysResponse
		if code := getJSON(t, base+"/v1/feeds/"+feed+"/convoys?cursor=0&wait=5s", &closed); code != http.StatusOK || len(closed.Convoys) == 0 {
			t.Fatalf("%s: status %d, %d closed convoys", feed, code, len(closed.Convoys))
		}
		srv.persistAll()

		var want []string
		for _, rec := range readConvoyLog(t, logPath) {
			if !storage.IsMarker(rec.Convoy) {
				want = append(want, canonConvoy(rec.Feed, rec.Convoy))
			}
		}
		if n := srv.arch.Count(); n != int64(len(want)) {
			t.Fatalf("round %d: archive holds %d convoys after the persist round, the log %d", round, n, len(want))
		}
		slices.Sort(want)
		got := pageAll(t, base+"/v1/query/convoys?min_size=1", 7)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: query after the persist round served\n%q\nwant\n%q", round, got, want)
		}
	}
}

func TestQueryPagination(t *testing.T) {
	_, base, _ := archiveTestServer(t, nil)

	// Several feeds, each one convoy, so pagination has distinct records.
	const feeds = 5
	for i := 0; i < feeds; i++ {
		name := fmt.Sprintf("f%d", i)
		code, body := postJSON(t, base+"/v1/feeds/"+name+"/ingest",
			ingestRequest{Snapshots: convoySnapshots(4+i, 3)})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", name, code, body)
		}
		flushFeed(t, base, name)
	}
	waitForQuery(t, base+"/v1/query/convoys?min_size=3&limit=1000", feeds)

	var got []string
	url := base + "/v1/query/convoys?min_size=3&limit=2"
	pages := 0
	for {
		var resp queryResponse
		if code := getJSON(t, url, &resp); code != http.StatusOK {
			t.Fatalf("page %d: %d", pages, code)
		}
		if len(resp.Convoys) > 2 {
			t.Fatalf("page %d: %d convoys, limit was 2", pages, len(resp.Convoys))
		}
		for _, c := range resp.Convoys {
			got = append(got, fmt.Sprintf("%s:%d-%d", c.Feed, c.Start, c.End))
		}
		pages++
		if !resp.More {
			break
		}
		if resp.Cursor == "" {
			t.Fatal("more=true with no cursor")
		}
		url = base + "/v1/query/convoys?min_size=3&limit=2&cursor=" + resp.Cursor
	}
	if pages < 3 {
		t.Fatalf("expected ≥3 pages for %d records at limit 2, got %d", feeds, pages)
	}
	sort.Strings(got)
	if len(got) != feeds {
		t.Fatalf("paged %d records, want %d: %v", len(got), feeds, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate record across pages: %s", got[i])
		}
	}
}

// TestQueryWithoutArchive: the query routes are always registered; without
// an archive they answer 501, pointing at the flag.
func TestQueryWithoutArchive(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	for _, p := range []string{"/v1/query/time", "/v1/query/object?oid=1", "/v1/query/convoys"} {
		if code := getJSON(t, ts.URL+p, nil); code != http.StatusNotImplemented {
			t.Fatalf("GET %s without archive: status %d, want 501", p, code)
		}
	}
}

func TestArchiveRequiresPersist(t *testing.T) {
	if _, err := New(Config{ArchiveDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted ArchiveDir without PersistPath")
	}
}

// TestQuerySoakNeverBlocksIngest sustains ingest over several feeds while
// eight parallel readers hammer every query endpoint. The ingest path must
// see zero backpressure beyond what PR 3's configuration saw without
// queries (here: none at all), queries must all succeed, the archive's
// reader gauges must drain back to zero once the hammering stops, and
// afterwards the archive must byte-identically mirror a brute-force scan
// of the convoy log.
func TestQuerySoakNeverBlocksIngest(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "closed.k2cl")
	archDir := filepath.Join(dir, "archive")
	cfg := Config{
		Shards:       4,
		QueueLen:     64,
		EnqueueWait:  2 * time.Second,
		PersistPath:  logPath,
		PersistEvery: 15 * time.Millisecond,
		ArchiveDir:   archDir,
	}
	srv, ts := newTestServer(t, cfg)
	base := ts.URL

	const feeds = 6
	var (
		wg        sync.WaitGroup // ingesters only
		queryWg   sync.WaitGroup
		rejected  atomic.Int64
		queryErrs atomic.Int64
		stop      = make(chan struct{})
	)
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			name := fmt.Sprintf("soak%d", f)
			for tick := 0; tick < 40; tick++ {
				sn := snapshotJSON{T: int32(tick)}
				for oid := 1; oid <= 4; oid++ {
					sn.Positions = append(sn.Positions, positionJSON{
						OID: int32(oid), X: float64(tick), Y: float64(oid) * 0.1})
				}
				// Break the clump periodically so convoys keep closing (and
				// keep flowing into the log + archive) mid-soak.
				if tick%10 == 9 {
					for i := range sn.Positions {
						sn.Positions[i].X += float64(i) * 1e5
					}
				}
				code, _ := postJSON(t, base+"/v1/feeds/"+name+"/ingest",
					ingestRequest{Snapshots: []snapshotJSON{sn}})
				if code == http.StatusTooManyRequests {
					rejected.Add(1)
				}
			}
			flushFeed(t, base, name)
		}(f)
	}
	for q := 0; q < 8; q++ {
		queryWg.Add(1)
		go func(q int) {
			defer queryWg.Done()
			urls := []string{
				base + "/v1/query/time?from=0&to=40",
				base + "/v1/query/object?oid=1",
				base + "/v1/query/convoys?min_size=2",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if code := getJSON(t, urls[(q+i)%len(urls)], nil); code != http.StatusOK {
					queryErrs.Add(1)
				}
			}
		}(q)
	}
	// Stop the query hammering once every ingester+flush finished.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("soak did not finish")
	}
	close(stop)
	queryWg.Wait()

	if n := rejected.Load(); n != 0 {
		t.Fatalf("%d ingests hit 429 while queries ran", n)
	}
	if n := queryErrs.Load(); n != 0 {
		t.Fatalf("%d queries failed during the soak", n)
	}

	// Every page releases its read view on completion: with the hammering
	// stopped, the snapshot/reader gauges must have drained to zero.
	var st Stats
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats after soak: status %d", code)
	}
	if st.Archive == nil {
		t.Fatal("stats missing archive section")
	}
	if st.Archive.LiveReaders != 0 || st.Archive.LiveSnapshots != 0 {
		t.Fatalf("reader gauges not drained: live_readers=%d live_snapshots=%d",
			st.Archive.LiveReaders, st.Archive.LiveSnapshots)
	}

	// Drain everything to disk, then diff archive against the log.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := storage.ScanConvoyLog(logPath, func(r storage.LoggedConvoy) error {
		if !storage.IsMarker(r.Convoy) {
			want = append(want, r.Feed+"\x00"+r.Convoy.Key())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a, added, rebuilt, err := archive.OpenAndBackfill(archDir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if added != 0 || rebuilt {
		t.Fatalf("clean shutdown left %d records to index (rebuilt=%v)", added, rebuilt)
	}
	var got []string
	q := archive.Query{Limit: 100}
	for {
		res, err := a.QueryTime(-1<<31, 1<<31-1, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			got = append(got, r.Feed+"\x00"+r.Convoy.Key())
		}
		if !res.More {
			break
		}
		q.Cursor = res.Next
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("archive holds %d records, log %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: archive %q, log %q", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("soak closed no convoys; scenario broken")
	}
}
