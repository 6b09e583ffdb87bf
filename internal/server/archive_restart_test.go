package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// The archive holds no copy of the convoys: these tests restart convoyd
// over its one convoy log — after a kill, after the log was replaced — and
// require every historical query, paged to exhaustion over HTTP, to equal a
// brute-force filter over storage.ScanConvoyLog of that log.

// histRecords generates a seeded batch of closed-convoy records the way an
// old log holds them.
func histRecords(seed int64, n int) []storage.LoggedConvoy {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]storage.LoggedConvoy, 0, n)
	for i := 0; i < n; i++ {
		ids := make([]int32, 3+rng.Intn(6))
		for j := range ids {
			ids[j] = int32(rng.Intn(40))
		}
		start := int32(rng.Intn(100))
		recs = append(recs, storage.LoggedConvoy{
			Feed:   fmt.Sprintf("hist-%d", rng.Intn(4)),
			Convoy: model.NewConvoy(model.NewObjSet(ids...), start, start+int32(4+rng.Intn(20))),
		})
	}
	return recs
}

func writeConvoyLog(t *testing.T, path string, recs []storage.LoggedConvoy) {
	t.Helper()
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func canonConvoy(feed string, c model.Convoy) string { return feed + "\x00" + c.Key() }

// pageAll pages a /v1/query URL to exhaustion and returns the sorted
// canonical forms of everything it served.
func pageAll(t *testing.T, url string) []string {
	t.Helper()
	var out []string
	cursor := ""
	for page := 0; ; page++ {
		var resp queryResponse
		if code := getJSON(t, url+"&limit=7"+cursor, &resp); code != http.StatusOK {
			t.Fatalf("GET %s page %d: status %d", url, page, code)
		}
		for _, c := range resp.Convoys {
			out = append(out, canonConvoy(c.Feed, model.Convoy{Objs: c.Objs, Start: c.Start, End: c.End}))
		}
		if !resp.More {
			slices.Sort(out)
			return out
		}
		cursor = "&cursor=" + resp.Cursor
	}
}

// assertQueriesMatchLog diffs all three query shapes, over a spread of
// parameters, against a brute-force filter of the log at logPath.
func assertQueriesMatchLog(t *testing.T, base, logPath string) {
	t.Helper()
	var logged []storage.LoggedConvoy
	if _, err := storage.ScanConvoyLog(logPath, func(r storage.LoggedConvoy) error {
		if !storage.IsMarker(r.Convoy) {
			logged = append(logged, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) == 0 {
		t.Fatal("log holds no convoys; scenario broken")
	}
	brute := func(keep func(storage.LoggedConvoy) bool) []string {
		var out []string
		for _, r := range logged {
			if keep(r) {
				out = append(out, canonConvoy(r.Feed, r.Convoy))
			}
		}
		slices.Sort(out)
		return out
	}
	check := func(url string, keep func(storage.LoggedConvoy) bool) {
		t.Helper()
		if got, want := pageAll(t, base+url), brute(keep); !slices.Equal(got, want) {
			t.Fatalf("GET %s: served %d convoys, brute force over the log finds %d", url, len(got), len(want))
		}
	}
	for from := int32(-10); from < 130; from += 35 {
		to := from + 30
		check(fmt.Sprintf("/v1/query/time?from=%d&to=%d", from, to), func(r storage.LoggedConvoy) bool {
			return r.Convoy.Start <= to && r.Convoy.End >= from
		})
	}
	for oid := int32(0); oid < 45; oid += 4 {
		check(fmt.Sprintf("/v1/query/object?oid=%d", oid), func(r storage.LoggedConvoy) bool {
			return r.Convoy.Objs.Contains(oid)
		})
	}
	for minSize := 0; minSize < 10; minSize += 3 {
		minDur := 2 * minSize
		check(fmt.Sprintf("/v1/query/convoys?min_size=%d&min_dur=%d", minSize, minDur), func(r storage.LoggedConvoy) bool {
			return len(r.Convoy.Objs) >= minSize && r.Convoy.Len() >= minDur
		})
	}
	check("/v1/query/convoys?feed=hist-1", func(r storage.LoggedConvoy) bool { return r.Feed == "hist-1" })
}

// dirNames lists dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// assertArchiveDirIsDerived checks the archive directory holds the three
// indexes and META — and no records file: the log is the only copy — and
// that each index is its manifest and the runs, with no log of its own.
func assertArchiveDirIsDerived(t *testing.T, dir string) {
	t.Helper()
	names := dirNames(t, dir)
	if want := []string{"META", "obj", "size", "time"}; !slices.Equal(names, want) {
		t.Fatalf("archive directory holds %v, want %v", names, want)
	}
	for _, idx := range names[1:] {
		for _, name := range dirNames(t, filepath.Join(dir, idx)) {
			if sst, _ := filepath.Match("sst-*.sst", name); !sst && name != "MANIFEST" {
				t.Fatalf("index %s holds %s, want only MANIFEST and sst-*.sst", idx, name)
			}
		}
	}
}

func restartConfig(dir string) Config {
	return Config{
		Params:       testParams,
		Shards:       2,
		PersistPath:  filepath.Join(dir, "closed.k2cl"),
		PersistEvery: 10 * time.Millisecond,
		ArchiveDir:   filepath.Join(dir, "archive"),
		EnqueueWait:  time.Second,
	}
}

const (
	killHelperEnv = "CONVOYD_KILL_HELPER_DIR"
	killLiveFeeds = 5
)

// TestArchiveKillHelper is the convoyd that TestArchiveKillRestart
// re-executes the test binary to run: it serves on top of an existing log,
// mines a few live feeds until their convoys are logged and queryable, and
// then dies by SIGKILL — no Close, no final persist, no index flush.
func TestArchiveKillHelper(t *testing.T) {
	dir := os.Getenv(killHelperEnv)
	if dir == "" {
		t.Skip("helper process of TestArchiveKillRestart")
	}
	srv, err := New(restartConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < killLiveFeeds; i++ {
		name := fmt.Sprintf("live-%d", i)
		code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/ingest",
			ingestRequest{Snapshots: convoySnapshots(5+i, 3+i%3)})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", name, code, body)
		}
		flushFeed(t, ts.URL, name)
	}
	for i := 0; i < killLiveFeeds; i++ {
		waitForQuery(t, fmt.Sprintf("%s/v1/query/convoys?limit=1000&feed=live-%d", ts.URL, i), 1)
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	p.Kill()
	select {}
}

// TestArchiveKillRestart: a convoyd killed without Close restarts over the
// same log and archive directory. The checkpoint covers the log as of the
// killed process's start, so exactly the convoys it logged afterwards —
// whose index entries died in unflushed memtables — are indexed again, in
// place, and every query equals brute force over the log.
func TestArchiveKillRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := restartConfig(dir)
	hist := histRecords(5, 300)
	writeConvoyLog(t, cfg.PersistPath, hist)

	cmd := exec.Command(os.Args[0], "-test.run=^TestArchiveKillHelper$")
	cmd.Env = append(os.Environ(), killHelperEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("helper convoyd did not die by signal: %v\n%s", err, out)
	}

	srv, ts := newTestServer(t, cfg)
	var logged int64
	if _, err := storage.ScanConvoyLog(cfg.PersistPath, func(r storage.LoggedConvoy) error {
		if !storage.IsMarker(r.Convoy) {
			logged++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	a := srv.Stats().Archive
	if live := logged - int64(len(hist)); a.Rebuilt || live < killLiveFeeds || a.Backfilled != live {
		t.Fatalf("restart indexed %d records (rebuilt=%v), want the %d logged after the killed process's checkpoint",
			a.Backfilled, a.Rebuilt, live)
	}
	assertQueriesMatchLog(t, ts.URL, cfg.PersistPath)
	assertArchiveDirIsDerived(t, cfg.ArchiveDir)
}

// TestArchiveReplacedLogRestart: the log is replaced under the indexes by
// one holding the same records minus a prefix. The checkpoint's prefix
// checksum must notice at the next start, and the rebuilt indexes must
// serve exactly the replacement.
func TestArchiveReplacedLogRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := restartConfig(dir)
	writeConvoyLog(t, cfg.PersistPath, histRecords(6, 300))

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a := srv.Stats().Archive; a.Backfilled != 300 || a.Rebuilt {
		t.Fatalf("first start indexed %d records (rebuilt=%v), want 300", a.Backfilled, a.Rebuilt)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readConvoyLog(t, cfg.PersistPath)
	const dropped = 20
	if len(recs) <= dropped {
		t.Fatalf("log holds %d records; scenario broken", len(recs))
	}
	kept := len(recs) - dropped
	writeConvoyLog(t, cfg.PersistPath, recs[dropped:])

	srv, ts := newTestServer(t, cfg)
	if a := srv.Stats().Archive; !a.Rebuilt || a.Backfilled != int64(kept) {
		t.Fatalf("start on the replaced log indexed %d records (rebuilt=%v), want a rebuild of %d", a.Backfilled, a.Rebuilt, kept)
	}
	assertQueriesMatchLog(t, ts.URL, cfg.PersistPath)
	assertArchiveDirIsDerived(t, cfg.ArchiveDir)
}

// TestCleanRestartIndexesNothing: a clean Close leaves META at the log's
// end and every index entry in a flushed run, so the next start indexes no
// record, rebuilds nothing, answers every query as before — and writes no
// file in any index directory.
func TestCleanRestartIndexesNothing(t *testing.T) {
	cfg := restartConfig(t.TempDir())
	cfg.Params = patternSoakParams
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for i, pat := range []string{"convoy", "flock", "mc"} {
		snaps, _ := patternSoakSnapshots(int32(10*i + 1))
		code, body := postJSON(t, ts.URL+"/v1/feeds/"+pat+"/ingest?pattern="+pat, ingestRequest{Snapshots: snaps})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", pat, code, body)
		}
		if code, body := postJSON(t, ts.URL+"/v1/feeds/"+pat+"/flush", nil); code != http.StatusOK {
			t.Fatalf("flush %s: %d %s", pat, code, body)
		}
		waitForQuery(t, ts.URL+"/v1/query/convoys?limit=1000&feed="+pat, 1)
	}
	queries := []string{"/v1/query/time?from=0&to=1000", "/v1/query/object?oid=12", "/v1/query/convoys?min_size=2"}
	answers := func(base string) [][]string {
		var out [][]string
		for _, q := range queries {
			out = append(out, pageAll(t, base+q))
		}
		return out
	}
	// indexState lists every index directory and stats its MANIFEST: a
	// manifest commit renames a new file over the old one.
	indexState := func() (files [][]string, manifests []os.FileInfo) {
		for _, idx := range []string{"time", "obj", "size"} {
			dir := filepath.Join(cfg.ArchiveDir, idx)
			st, err := os.Stat(filepath.Join(dir, "MANIFEST"))
			if err != nil {
				t.Fatal(err)
			}
			files, manifests = append(files, dirNames(t, dir)), append(manifests, st)
		}
		return files, manifests
	}
	want := answers(ts.URL)
	for i, a := range want {
		if len(a) == 0 {
			t.Fatalf("GET %s answers nothing; scenario broken", queries[i])
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	files, manifests := indexState()

	srv, ts = newTestServer(t, cfg)
	if a := srv.Stats().Archive; a.Backfilled != 0 || a.Rebuilt {
		t.Fatalf("clean restart indexed %d records (rebuilt=%v), want none", a.Backfilled, a.Rebuilt)
	}
	if got := answers(ts.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("queries after the restart answer %v, before it %v", got, want)
	}
	gotFiles, gotManifests := indexState()
	if !reflect.DeepEqual(gotFiles, files) {
		t.Fatalf("clean open changed the index directories: %v, were %v", gotFiles, files)
	}
	for i, st := range gotManifests {
		if !os.SameFile(st, manifests[i]) {
			t.Fatalf("clean open rewrote the MANIFEST of index %d", i)
		}
	}
	assertArchiveDirIsDerived(t, cfg.ArchiveDir)
}
