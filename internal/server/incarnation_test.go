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
	"math/rand"
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

// TestIncarnationLifecycleSeeded drives seeded random step sequences over
// three feed names — ingest (which recreates an evicted name), flush,
// evict, persist and close/reopen — against a model of each name: its
// flushed bit, its cursor head, whether it is resident or a tomb, and the
// convoy records its log must hold, which are each incarnation's batch
// PCCD over its accepted ticks (minus those still open, for an incarnation
// never flushed), concatenated. A reopen re-sends every resident unflushed
// incarnation's ticks, as a client resuming after a restart does.
func TestIncarnationLifecycleSeeded(t *testing.T) {
	var total incarnationSteps
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("failed with seed %d", seed)
				}
			})
			n := runIncarnationSeed(t, seed)
			total.flushedEvicted += n.flushedEvicted
			total.recreated += n.recreated
			total.reopenedRecreated += n.reopenedRecreated
			total.convoys += n.convoys
		})
	}
	t.Logf("over all seeds: %+v", total)
	// Each seam the model covers must be crossed by some seed.
	if total.flushedEvicted == 0 || total.recreated == 0 || total.reopenedRecreated == 0 || total.convoys == 0 {
		t.Fatalf("the seeds never crossed a seam: %+v", total)
	}
}

// incarnationSteps counts what one seed's steps did.
type incarnationSteps struct {
	flushedEvicted    int // evictions of a flushed incarnation
	recreated         int // ingests that started a name's second or later incarnation
	reopenedRecreated int // reopens over a log holding a resident name's eviction marker
	convoys           int // convoy records the log ends with
}

// incarnation is the model of one incarnation of a feed name.
type incarnation struct {
	ticks   []snapshotJSON // accepted, in order
	flushed bool
}

// logged is the sorted convoy keys the incarnation's log records must hold.
func (inc *incarnation) logged(t *testing.T) []string {
	if inc == nil || len(inc.ticks) == 0 {
		return nil
	}
	var pts []model.Point
	for _, sn := range inc.ticks {
		for _, p := range sn.Positions {
			pts = append(pts, model.Point{OID: p.OID, T: sn.T, X: p.X, Y: p.Y})
		}
	}
	last := inc.ticks[len(inc.ticks)-1].T
	var out []string
	for _, c := range batchPCCD(t, model.NewDataset(pts)) {
		if inc.flushed || c.End < last { // a convoy alive at the last tick is still open
			out = append(out, c.Key())
		}
	}
	slices.Sort(out)
	return out
}

// nameModel is the model of one feed name.
type nameModel struct {
	cur  *incarnation // nil: not resident
	base int          // cursor head when cur began
	done [][]string   // the logged keys of each ended incarnation
}

func (m *nameModel) head(t *testing.T) int { return m.base + len(m.cur.logged(t)) }

// incarnationTicks generates n ticks from t0 of two 4-object groups that
// ride together or scatter, with members dropping out and occasional gaps
// in time, so convoys of sizes 3 and 4 open and close at testParams.
func incarnationTicks(rng *rand.Rand, t0 int32, n int, together []bool) []snapshotJSON {
	var out []snapshotJSON
	tt := t0
	for i := 0; i < n; i++ {
		sn := snapshotJSON{T: tt}
		for g := range together {
			if rng.Float64() < 0.12 {
				together[g] = !together[g]
			}
			for j := 0; j < 4; j++ {
				x := float64(1000*g) + 0.5*float64(j)
				if !together[g] || rng.Float64() < 0.05 {
					x = float64(1000*g) + 300 + 100*float64(j)
				}
				sn.Positions = append(sn.Positions, positionJSON{OID: int32(4*g + j + 1), X: x})
			}
		}
		out = append(out, sn)
		tt++
		if rng.Float64() < 0.1 {
			tt += int32(1 + rng.Intn(3))
		}
	}
	return out
}

func runIncarnationSeed(t *testing.T, seed int64) (n incarnationSteps) {
	rng := rand.New(rand.NewSource(seed))
	path := t.TempDir() + "/closed.k2cl"
	const ttl = time.Hour // the background loop never sweeps; the test does
	const steps = 50
	cfg := Config{Params: testParams, Shards: 2, PersistPath: path, PersistEvery: time.Hour, FeedTTL: ttl}
	names := []string{"a", "b", "c"}
	models := map[string]*nameModel{}
	together := map[string][]bool{}
	for _, name := range names {
		models[name] = &nameModel{}
		together[name] = []bool{true, false}
	}
	srv, ts := startServer(t, cfg)
	defer func() {
		if srv != nil {
			stopServer(t, srv, ts)
		}
	}()

	ingest := func(name string, snaps []snapshotJSON) int {
		code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/ingest", ingestRequest{Snapshots: snaps})
		if code != http.StatusAccepted && code != http.StatusConflict {
			t.Fatalf("ingest %s: status %d: %s", name, code, body)
		}
		return code
	}
	checkLog := func(step int) {
		segs := map[string][][]string{}
		for _, name := range names {
			segs[name] = [][]string{nil}
		}
		for _, r := range readConvoyLog(t, path) {
			s := segs[r.Feed]
			switch {
			case r.Convoy.End == storage.EvictMarker().End && storage.IsMarker(r.Convoy):
				segs[r.Feed] = append(s, nil)
			case !storage.IsMarker(r.Convoy):
				s[len(s)-1] = append(s[len(s)-1], r.Convoy.Key())
			}
		}
		for _, name := range names {
			m := models[name]
			want := append(slices.Clone(m.done), m.cur.logged(t))
			got := segs[name]
			for _, s := range got {
				slices.Sort(s)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("step %d: feed %s logs incarnations %q, want %q", step, name, got, want)
			}
		}
	}
	checkState := func(step int) {
		settle(t, srv)
		st := srv.Stats()
		for _, name := range names {
			m := models[name]
			fs, resident := st.Feeds[name]
			if resident != (m.cur != nil) {
				t.Fatalf("step %d: feed %s resident = %v, want %v", step, name, resident, m.cur != nil)
			}
			head := m.base
			if m.cur == nil {
				srv.mu.RLock()
				tomb := srv.tombs[name]
				srv.mu.RUnlock()
				if tomb != head {
					t.Fatalf("step %d: evicted feed %s tombstoned at %d, want %d", step, name, tomb, head)
				}
				if code := getJSON(t, ts.URL+"/v1/feeds/"+name+"/convoys", nil); code != http.StatusNotFound {
					t.Fatalf("step %d: GET evicted feed %s: status %d, want 404", step, name, code)
				}
				continue
			}
			head = m.head(t)
			if fs.ClosedTotal != int64(head) {
				t.Fatalf("step %d: feed %s closed_total = %d, want %d", step, name, fs.ClosedTotal, head)
			}
			var resp convoysResponse
			if code := getJSON(t, fmt.Sprintf("%s/v1/feeds/%s/convoys?cursor=%d", ts.URL, name, head), &resp); code != http.StatusOK {
				t.Fatalf("step %d: GET feed %s at its head: status %d", step, name, code)
			}
			if resp.Flushed != m.cur.flushed {
				t.Fatalf("step %d: feed %s flushed = %v, want %v", step, name, resp.Flushed, m.cur.flushed)
			}
		}
	}

	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		m := models[name]
		switch p := rng.Float64(); {
		case p < 0.45: // ingest; an evicted name starts a new incarnation, at any clock
			if m.cur == nil {
				m.cur = &incarnation{}
				if len(m.done) > 0 {
					n.recreated++
				}
			}
			t0 := int32(rng.Intn(20))
			if n := len(m.cur.ticks); n > 0 {
				t0 = m.cur.ticks[n-1].T + 1 + int32(rng.Intn(2))
			}
			snaps := incarnationTicks(rng, t0, 1+rng.Intn(8), together[name])
			want := http.StatusAccepted
			if m.cur.flushed {
				want = http.StatusConflict
			}
			if code := ingest(name, snaps); code != want {
				t.Fatalf("step %d: ingest %s: status %d, want %d", step, name, code, want)
			}
			if !m.cur.flushed {
				m.cur.ticks = append(m.cur.ticks, snaps...)
			}
		case p < 0.6: // flush
			code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/flush", nil)
			want := http.StatusOK
			if m.cur == nil {
				want = http.StatusNotFound
			}
			if code != want {
				t.Fatalf("step %d: flush %s: status %d: %s, want %d", step, name, code, body, want)
			}
			if m.cur != nil {
				m.cur.flushed = true
			}
		case p < 0.8: // evict name alone: every other feed is active an hour from now
			if m.cur == nil {
				continue
			}
			settle(t, srv)
			srv.persistAll()
			now := time.Now()
			srv.mu.RLock()
			for _, f := range srv.feeds {
				if f.name == name {
					f.touch(now.UnixNano())
				} else {
					f.touch(now.Add(2 * ttl).UnixNano())
				}
			}
			srv.mu.RUnlock()
			srv.sweep(now.Add(ttl))
			if m.cur.flushed {
				n.flushedEvicted++
			}
			logged := m.cur.logged(t)
			m.done = append(m.done, logged)
			m.base += len(logged)
			m.cur = nil
		case p < 0.9:
			srv.persistAll()
		default: // close and reopen, then resume every unflushed incarnation
			stopServer(t, srv, ts)
			checkLog(step)
			srv, ts = startServer(t, cfg)
			for _, name := range names {
				m := models[name]
				if m.cur != nil && len(m.done) > 0 {
					n.reopenedRecreated++
				}
				if m.cur != nil && !m.cur.flushed {
					ingest(name, m.cur.ticks)
				}
			}
		}
		checkState(step)
	}
	stopServer(t, srv, ts)
	srv = nil
	checkLog(steps)
	for _, m := range models {
		for _, keys := range append(m.done, m.cur.logged(t)) {
			n.convoys += len(keys)
		}
	}
	return n
}
