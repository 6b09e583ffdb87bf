package server

// Kill/restart differential for the flock and moving-cluster feed modes: the
// root-package wall (pattern_differential_test.go) proves the streaming
// miners byte-identical to the batch oracles over the 120-seed corpus; this
// file proves the same equality survives the recovery seam, for convoy
// feeds too. Each seed's churn dataset is streamed twice with a
// convoy-closing gap, the server is killed mid-second-pass, restarted, and
// the client replays the full history — the flush must equal the batch
// oracle over the doubled dataset, the feed's family must survive recovery,
// and dedup must leave every persisted result in the log exactly once.
//
// The dedup set is pinned on both sides of the seam: the fresh feed keeps
// it empty however much it publishes, and the recovered feed holds exactly
// the logged patterns' digests after publishing the new ones.

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
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
		if storage.IsFlushMarker(r.Convoy) {
			continue
		}
		out[loggedKey(r)]++
	}
	return out
}

// logDigests is the dedup set recovery builds from the log at path.
func logDigests(t *testing.T, path string) map[convoy.PatternDigest]struct{} {
	t.Helper()
	out := map[convoy.PatternDigest]struct{}{}
	for _, r := range readConvoyLog(t, path) {
		if !storage.IsFlushMarker(r.Convoy) {
			out[loggedResult(r).Digest()] = struct{}{}
		}
	}
	return out
}

// patternRestartSeed runs one seed's kill/restart round-trip. It returns
// how many patterns the fresh feed published before the kill, and how many
// new ones the recovered feed published on top of a non-empty log.
func patternRestartSeed(t *testing.T, pat convoy.Pattern, seed int64) (published, republished int) {
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
	// dedups nothing and its set stays empty.
	fresh := srv1.feeds["churn"]
	published = fresh.head()
	if len(fresh.pubSeen) != 0 {
		t.Fatalf("seed %d (%s): fresh feed published %d patterns and holds %d digests, want 0", seed, pat, published, len(fresh.pubSeen))
	}
	before := patternLogMultiset(t, path, "churn")
	logged := logDigests(t, path)

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if len(before) > 0 {
		if f := srv2.Stats().Memory.RecoveredFeeds; f != 1 {
			t.Fatalf("seed %d: recovered %d feeds, want 1", seed, f)
		}
		if got := srv2.Stats().Feeds["churn"].Pattern; got != string(pat) {
			t.Fatalf("seed %d: recovered feed reports pattern %q, want %q", seed, got, pat)
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
	// Publishing what the log lacked added nothing to the recovered set.
	rf := srv2.feeds["churn"]
	if !maps.Equal(rf.pubSeen, logged) {
		t.Fatalf("seed %d (%s): recovered feed holds %d digests, the log %d", seed, pat, len(rf.pubSeen), len(logged))
	}
	if len(logged) > 0 {
		republished = rf.head() - len(logged)
	}

	// Durability: the log converges to exactly the oracle (dedup kept each
	// pre-crash record single across the replay), nothing lost.
	after := patternLogMultiset(t, path, "churn")
	if d := multisetDiff(want, after); d != "" {
		t.Fatalf("seed %d (%s): log after replay differs from the batch oracle:\n%s", seed, pat, d)
	}
	for k := range before {
		if after[k] != 1 {
			t.Fatalf("seed %d: record %q appears %d times after replay", seed, k, after[k])
		}
	}
	return published, republished
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
			published, republished := 0, 0
			for seed := int64(0); seed < seeds; seed++ {
				p, r := patternRestartSeed(t, pat, seed)
				published, republished = published+p, republished+r
			}
			if published == 0 || republished == 0 {
				t.Fatalf("fresh feeds published %d patterns, recovered feeds %d new ones: the dedup-set checks need both > 0", published, republished)
			}
		})
	}
}
