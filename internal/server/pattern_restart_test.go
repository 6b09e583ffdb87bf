package server

// Kill/restart differential for the flock and moving-cluster feed modes: the
// root-package wall (pattern_differential_test.go) proves the streaming
// miners byte-identical to the batch oracles over the 120-seed corpus; this
// file proves the same equality survives the recovery seam, for convoy
// feeds too. Each seed's churn dataset is streamed twice with a
// convoy-closing gap, the server is killed mid-second-pass, restarted, and
// the client replays the full history — the flush must equal the batch
// oracle over the doubled dataset, the feed's family must survive recovery,
// and the resume point must leave every persisted result in the log
// exactly once.
//
// The resume point is pinned on both sides of the seam: the fresh feed
// holds none however much it publishes, the recovered feed holds its log's
// last End and the records ending there, and it drops the point once it
// publishes a pattern ending after that End.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// patternLogMultiset reads one feed's log into a family-aware key multiset
// (logMultiset keys on Convoy.Key, which would conflate moving-cluster
// chains sharing a span).
func patternLogMultiset(t *testing.T, path, feed string) map[string]int {
	t.Helper()
	recs := readConvoyLog(t, path)
	out := map[string]int{}
	for _, r := range recs {
		if r.Feed != feed {
			t.Fatalf("log names unknown feed %q", r.Feed)
		}
		if storage.IsMarker(r.Convoy) {
			continue
		}
		out[loggedKey(r)]++
	}
	return out
}

// logResume is the resume point recovery builds from the log at path: the
// End of its last record and the records ending there. Nil for a log
// without records.
func logResume(t *testing.T, path string) *resumePoint {
	t.Helper()
	var w *resumePoint
	for _, r := range readConvoyLog(t, path) {
		if storage.IsMarker(r.Convoy) {
			continue
		}
		if w == nil || w.end != r.Convoy.End {
			w = &resumePoint{end: r.Convoy.End}
		}
		w.tail = append(w.tail, convoy.PatternResult{Convoy: r.Convoy, Clusters: r.Clusters})
	}
	return w
}

// patternRestartSeed runs one seed's kill/restart round-trip. It returns
// how many patterns the fresh feed published before the kill, how many new
// ones the recovered feed published on top of a non-empty log, and whether
// that feed published past its resume point.
func patternRestartSeed(t *testing.T, pat convoy.Pattern, seed int64) (published, republished int, resumed bool) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{Params: patternSoakParams, Shards: 1, PersistPath: path, PersistEvery: 5 * time.Millisecond}
	ds := minetest.RandomChurn(seed, 8+int(seed%5), 10+int(seed%7))
	full := append(churnSnapshots(ds, 0), churnSnapshots(ds, 200)...)
	var pts []model.Point
	for _, sn := range full {
		for _, p := range sn.Positions {
			pts = append(pts, model.Point{OID: p.OID, T: sn.T, X: p.X, Y: p.Y})
		}
	}
	want := patternSoakWant(t, pat, pts)

	// Crash mid-second-pass: the gap has closed the first pass's patterns,
	// so (on most seeds) some history is persisted before the kill.
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cut := len(full)/2 + 3
	if code, body := postJSON(t, ts1.URL+"/v1/feeds/churn/ingest?pattern="+string(pat),
		ingestRequest{Snapshots: full[:cut]}); code != http.StatusAccepted {
		t.Fatalf("seed %d: pre-crash ingest: status %d: %s", seed, code, body)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	// The miner reports each pattern once, so a feed that recovered nothing
	// drops nothing and holds no resume point.
	fresh := srv1.feeds["churn"]
	published = fresh.head()
	if fresh.resume != nil {
		t.Fatalf("seed %d (%s): fresh feed published %d patterns and holds resume point %+v, want none", seed, pat, published, fresh.resume)
	}
	before := patternLogMultiset(t, path, "churn")
	logged := logResume(t, path)

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	recovered := srv2.Stats().Memory.RecoveredConvoys
	if len(before) > 0 {
		if f := srv2.Stats().Memory.RecoveredFeeds; f != 1 {
			t.Fatalf("seed %d: recovered %d feeds, want 1", seed, f)
		}
		if got := srv2.Stats().Feeds["churn"].Pattern; got != string(pat) {
			t.Fatalf("seed %d: recovered feed reports pattern %q, want %q", seed, got, pat)
		}
		// No message has reached the feed's actor yet.
		if rp := srv2.feeds["churn"].resume; !reflect.DeepEqual(rp, logged) {
			t.Fatalf("seed %d (%s): recovered feed resumes at %+v, the log ends at %+v", seed, pat, rp, logged)
		}
	}
	if code, body := postJSON(t, ts2.URL+"/v1/feeds/churn/ingest?pattern="+string(pat),
		ingestRequest{Snapshots: full}); code != http.StatusAccepted {
		t.Fatalf("seed %d: replay ingest: status %d: %s", seed, code, body)
	}
	code, body := postJSON(t, ts2.URL+"/v1/feeds/churn/flush", nil)
	if code != http.StatusOK {
		t.Fatalf("seed %d: flush: status %d: %s", seed, code, body)
	}
	var resp convoysResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Flushed || resp.Pattern != string(pat) {
		t.Fatalf("seed %d: flush: flushed=%v pattern=%q, want flushed %s", seed, resp.Flushed, resp.Pattern, pat)
	}
	got := map[string]int{}
	for _, c := range resp.Convoys {
		got[respKey(pat, c)]++
	}
	if d := multisetDiff(want, got); d != "" {
		t.Fatalf("seed %d (%s): flush after kill/restart differs from the batch oracle:\n%s", seed, pat, d)
	}
	checkResidentCounts(t, srv2)
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	// The recovered feed dropped its resume point exactly when it published
	// a pattern ending after the point's End.
	rf := srv2.feeds["churn"]
	if logged != nil {
		republished = rf.head() - recovered
		resumed = logResume(t, path).end > logged.end
		if resumed != (rf.resume == nil) {
			t.Fatalf("seed %d (%s): log's last End went %d → %d, yet the feed's resume point is %+v", seed, pat, logged.end, logResume(t, path).end, rf.resume)
		}
	}

	// Durability: the log converges to exactly the oracle (the resume point
	// kept each pre-crash record single across the replay), nothing lost.
	after := patternLogMultiset(t, path, "churn")
	if d := multisetDiff(want, after); d != "" {
		t.Fatalf("seed %d (%s): log after replay differs from the batch oracle:\n%s", seed, pat, d)
	}
	for k := range before {
		if after[k] != 1 {
			t.Fatalf("seed %d: record %q appears %d times after replay", seed, k, after[k])
		}
	}
	return published, republished, resumed
}

// TestPatternRestartDifferential runs the kill/restart round-trip over the
// 120-seed churn corpus for every pattern family.
func TestPatternRestartDifferential(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 12
	}
	for _, pat := range []convoy.Pattern{convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC} {
		t.Run(string(pat), func(t *testing.T) {
			t.Parallel()
			published, republished, resumed := 0, 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				p, r, past := patternRestartSeed(t, pat, seed)
				published, republished = published+p, republished+r
				if past {
					resumed++
				}
			}
			if published == 0 || republished == 0 || resumed == 0 {
				t.Fatalf("fresh feeds published %d patterns, recovered feeds %d new ones, %d of them past their resume point: the resume-point checks need all three > 0", published, republished, resumed)
			}
		})
	}
}
