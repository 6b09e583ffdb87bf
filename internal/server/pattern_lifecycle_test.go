package server

// Multi-pattern lifecycle soak: 12 feeds mixing all three pattern families
// (convoy, flock, moving cluster) through TTL eviction, crash recovery and a
// second restart, asserting no pattern-mode bleed anywhere — live stats, the
// persisted log, recovered negotiation state and flush responses must all
// keep each feed in its own family, and the persisted results must match the
// batch miners exactly once each across the whole lifecycle. Runs under
// -race in CI.

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// patternSoakParams are shared by the server and the batch oracles: m=2 and
// k=3 so the soak trajectories close patterns in every family, flock radius
// and theta left at the server defaults (eps and 0.5).
var patternSoakParams = convoy.Params{M: 2, K: 3, Eps: minetest.Eps}

// patternFeedCase is one soak feed: its negotiated family, its ingest body,
// and the batch-oracle result multiset the log must converge to.
type patternFeedCase struct {
	name  string
	pat   convoy.Pattern
	snaps []snapshotJSON
	want  map[string]int
}

// patternSoakSnapshots builds the soak trajectory for one feed: four objects
// riding in a line (X = 0, 1.4, 2.8, 4.2) over ticks [0,4] and [100,104],
// plus a lone object at tick 200 whose gap closes the second segment before
// any flush. The 1.4 spacing chains under eps=1.5, so DBSCAN sees one
// 4-object cluster per tick (one convoy, one moving-cluster chain per
// segment) — but the 4.2 span exceeds the flock disk diameter 2·eps=3, so
// the flock sweep must split it. A mined mode bleed therefore changes the
// result set itself, not just the labels.
func patternSoakSnapshots(base int32) ([]snapshotJSON, []model.Point) {
	xs := []float64{0, 1.4, 2.8, 4.2}
	var snaps []snapshotJSON
	var pts []model.Point
	for _, tt := range []int32{0, 1, 2, 3, 4, 100, 101, 102, 103, 104} {
		var pos []positionJSON
		for j, x := range xs {
			pos = append(pos, positionJSON{OID: base + int32(j), X: x})
			pts = append(pts, model.Point{OID: base + int32(j), T: tt, X: x})
		}
		snaps = append(snaps, snapshotJSON{T: tt, Positions: pos})
	}
	snaps = append(snaps, snapshotJSON{T: 200, Positions: []positionJSON{{OID: base}}})
	pts = append(pts, model.Point{OID: base, T: 200})
	return snaps, pts
}

// patternSoakWant mines the oracle dataset with the batch miner of the
// feed's family and returns the expected result-key multiset.
func patternSoakWant(t *testing.T, pat convoy.Pattern, pts []model.Point) map[string]int {
	t.Helper()
	ds := model.NewDataset(pts)
	want := map[string]int{}
	switch pat {
	case convoy.PatternFlock:
		fs, err := convoy.MineFlocks(convoy.NewMemStore(ds), convoy.PatternParams{Params: patternSoakParams}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			want[f.Key()]++
		}
	case convoy.PatternMC:
		ms, err := convoy.MineMovingClusters(convoy.NewMemStore(ds), convoy.PatternParams{Params: patternSoakParams})
		if err != nil {
			t.Fatal(err)
		}
		for _, mc := range ms {
			want[mc.Key()]++
		}
	default:
		res, err := convoy.MineDataset(ds, patternSoakParams, &convoy.Options{Algorithm: convoy.PCCD})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Convoys {
			want[c.Key()]++
		}
	}
	return want
}

// patternTag maps a pattern family to its log-record tag.
func patternTag(p convoy.Pattern) uint8 {
	switch p {
	case convoy.PatternFlock:
		return storage.LogPatternFlock
	case convoy.PatternMC:
		return storage.LogPatternMC
	}
	return storage.LogPatternConvoy
}

// loggedKey renders one log record with its family's canonical key — moving
// clusters key on the per-tick cluster sequence, everything else on the
// convoy itself.
func loggedKey(r storage.LoggedConvoy) string {
	if r.Pattern == storage.LogPatternMC {
		return convoy.MovingCluster{Start: r.Convoy.Start, Clusters: r.Clusters}.Key()
	}
	return r.Convoy.Key()
}

// respKey is loggedKey for a flush-response entry.
func respKey(pat convoy.Pattern, c convoyJSON) string {
	if pat == convoy.PatternMC {
		cls := make([]model.ObjSet, len(c.Clusters))
		for i, ids := range c.Clusters {
			cls[i] = model.NewObjSet(ids...)
		}
		return convoy.MovingCluster{Start: c.Start, Clusters: cls}.Key()
	}
	return model.NewConvoy(model.NewObjSet(c.Objs...), c.Start, c.End).Key()
}

// multisetDiff reports where two key multisets disagree ("" when equal).
func multisetDiff(want, got map[string]int) string {
	var sb strings.Builder
	for k, n := range want {
		if got[k] != n {
			fmt.Fprintf(&sb, "  %q: got %d, want %d\n", k, got[k], n)
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(&sb, "  %q: got %d, want 0\n", k, n)
		}
	}
	return sb.String()
}

// assertPatternStats checks /v1/stats-level isolation: every feed reports
// its own family and the per-pattern aggregates count exactly the feeds
// negotiated into each family.
func assertPatternStats(t *testing.T, srv *Server, cases []patternFeedCase, perPattern int, where string) {
	t.Helper()
	st := srv.Stats()
	for _, fc := range cases {
		fs, ok := st.Feeds[fc.name]
		if !ok {
			t.Fatalf("%s: feed %s missing from stats", where, fc.name)
		}
		if fs.Pattern != string(fc.pat) {
			t.Fatalf("%s: feed %s reports pattern %q, want %q (mode bleed)", where, fc.name, fs.Pattern, fc.pat)
		}
	}
	for _, pat := range []convoy.Pattern{convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC} {
		if got := st.Patterns[string(pat)].LiveFeeds; got != perPattern {
			t.Fatalf("%s: %d live %s feeds, want %d", where, got, pat, perPattern)
		}
	}
}

// assertPatternLog checks the persisted log: every record is tagged with its
// feed's family, clusters ride only on moving-cluster records, each feed's
// record multiset equals copies of its batch oracle exactly — one per
// incarnation that mined the feed's stream — each feed was evicted once,
// and (once flushed) each feed has exactly one flush sentinel carrying the
// family tag.
func assertPatternLog(t *testing.T, path string, cases []patternFeedCase, copies int, wantSentinels bool) {
	t.Helper()
	recs := readConvoyLog(t, path)
	byName := map[string]patternFeedCase{}
	for _, fc := range cases {
		byName[fc.name] = fc
	}
	got := map[string]map[string]int{}
	sentinels, evictions := map[string]int{}, map[string]int{}
	for _, r := range recs {
		fc, ok := byName[r.Feed]
		if !ok {
			t.Fatalf("log names unknown feed %q", r.Feed)
		}
		if r.Pattern != patternTag(fc.pat) {
			t.Fatalf("feed %s: logged pattern tag %d, want %d (mode bleed in the log)", r.Feed, r.Pattern, patternTag(fc.pat))
		}
		if storage.IsMarker(r.Convoy) {
			if r.Convoy.End == storage.EvictMarker().End {
				evictions[r.Feed]++
			} else {
				sentinels[r.Feed]++
			}
			continue
		}
		if fc.pat == convoy.PatternMC {
			if len(r.Clusters) != int(r.Convoy.End-r.Convoy.Start+1) {
				t.Fatalf("feed %s: mc record %s has %d clusters over %d ticks", r.Feed, r.Convoy.Key(), len(r.Clusters), r.Convoy.End-r.Convoy.Start+1)
			}
		} else if len(r.Clusters) != 0 {
			t.Fatalf("feed %s: %s record carries a cluster block", r.Feed, fc.pat)
		}
		m := got[r.Feed]
		if m == nil {
			m = map[string]int{}
			got[r.Feed] = m
		}
		m[loggedKey(r)]++
	}
	for _, fc := range cases {
		want := maps.Clone(fc.want)
		for k := range want {
			want[k] *= copies
		}
		if d := multisetDiff(want, got[fc.name]); d != "" {
			t.Fatalf("feed %s (%s): log differs from %d copies of the batch oracle:\n%s", fc.name, fc.pat, copies, d)
		}
		switch {
		case evictions[fc.name] != 1:
			t.Fatalf("feed %s: %d eviction markers, want 1", fc.name, evictions[fc.name])
		case wantSentinels && sentinels[fc.name] != 1:
			t.Fatalf("feed %s: %d flush sentinels, want 1", fc.name, sentinels[fc.name])
		case !wantSentinels && sentinels[fc.name] != 0:
			t.Fatalf("feed %s: flush sentinel before any flush", fc.name)
		}
	}
}

// TestMultiPatternLifecycleSoak is the acceptance soak for the pattern feed
// modes: 12 feeds (4 per family) ingest with negotiated patterns, mismatched
// negotiation answers 409 at every lifecycle stage, TTL eviction drains all
// resident state after persistence, a kill/restart restores none of the
// evicted feeds, a full client replay starts a new incarnation of each that
// negotiates its family again and logs its own results, flushes return the
// batch-oracle final sets in the right family, and a second restart
// recovers each feed's family and flushed terminal state — with each
// incarnation's log records byte-equal to the batch miners throughout.
func TestMultiPatternLifecycleSoak(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	cfg := Config{
		Params:       patternSoakParams,
		Shards:       4,
		PersistPath:  path,
		PersistEvery: 5 * time.Millisecond,
		FeedTTL:      120 * time.Millisecond,
	}
	pats := []convoy.Pattern{convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC}
	const feeds = 12
	cases := make([]patternFeedCase, feeds)
	for i := range cases {
		snaps, pts := patternSoakSnapshots(int32(4*i + 1))
		pat := pats[i%3]
		cases[i] = patternFeedCase{
			name:  fmt.Sprintf("soak-%d", i),
			pat:   pat,
			snaps: snaps,
			want:  patternSoakWant(t, pat, pts),
		}
		if len(cases[i].want) == 0 {
			t.Fatalf("feed %s: batch oracle found no %s patterns — soak data broken", cases[i].name, pat)
		}
	}
	// The families must genuinely disagree on this data (the flock disk
	// constraint splits the 4-object convoy), or a mined mode bleed could
	// hide behind identical result sets.
	if len(cases[1].want) <= len(cases[0].want) {
		t.Fatalf("flock oracle (%d results) does not split the convoy oracle (%d) — soak data too degenerate to detect bleed",
			len(cases[1].want), len(cases[0].want))
	}

	// Phase 1: ingest with negotiated patterns, probe negotiation, let TTL
	// eviction drain everything, then crash.
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	for _, fc := range cases {
		code, body := postJSON(t, ts1.URL+"/v1/feeds/"+fc.name+"/ingest?pattern="+string(fc.pat),
			ingestRequest{Snapshots: fc.snaps})
		if code != http.StatusAccepted {
			t.Fatalf("ingest %s (%s): status %d: %s", fc.name, fc.pat, code, body)
		}
	}
	probe := ingestRequest{Snapshots: []snapshotJSON{{T: 999, Positions: []positionJSON{{OID: 1}}}}}
	for i, fc := range cases {
		wrong := pats[(i+1)%3]
		code, body := postJSON(t, ts1.URL+"/v1/feeds/"+fc.name+"/ingest?pattern="+string(wrong), probe)
		if code != http.StatusConflict || !strings.Contains(string(body), string(codePatternMismatch)) {
			t.Fatalf("wrong-pattern ingest %s as %s: status %d: %s", fc.name, wrong, code, body)
		}
	}
	if code, body := postJSON(t, ts1.URL+"/v1/feeds/"+cases[0].name+"/ingest?pattern=swarm", probe); code != http.StatusBadRequest {
		t.Fatalf("unknown pattern: status %d: %s", code, body)
	}
	assertPatternStats(t, srv1, cases, feeds/3, "live")
	waitFor(t, 10*time.Second, "truncation and eviction to drain all pattern feeds", func() bool {
		st := srv1.Stats()
		return st.Memory.ClosedInMemory == 0 && st.Memory.LiveFeeds == 0
	})
	if st := srv1.Stats(); st.Memory.EvictedTotal != feeds {
		t.Fatalf("evicted %d feeds, want %d", st.Memory.EvictedTotal, feeds)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	assertPatternLog(t, path, cases, 1, false)

	// Phase 2: every feed was evicted, so the restart restores none. A full
	// client replay starts a new incarnation of each, negotiating its family
	// with the first half of the stream; the second half is unconstrained
	// on even feeds — an absent pattern matches whatever the feed mines —
	// and explicit on odd. The new incarnation's records are its own, so
	// the log gains each feed's results once more, and flush returns the
	// batch-oracle final set in the negotiated family.
	cfg2 := cfg
	cfg2.FeedTTL = 0
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if f := srv2.Stats().Memory.RecoveredFeeds; f != 0 {
		t.Fatalf("recovered %d feeds, want none: every feed was evicted", f)
	}
	for i, fc := range cases {
		half := len(fc.snaps) / 2
		url := ts2.URL + "/v1/feeds/" + fc.name + "/ingest"
		if code, body := postJSON(t, url+"?pattern="+string(fc.pat), ingestRequest{Snapshots: fc.snaps[:half]}); code != http.StatusAccepted {
			t.Fatalf("replay %s: status %d: %s", fc.name, code, body)
		}
		if i%2 == 1 {
			url += "?pattern=" + string(fc.pat)
		}
		if code, body := postJSON(t, url, ingestRequest{Snapshots: fc.snaps[half:]}); code != http.StatusAccepted {
			t.Fatalf("replay %s: status %d: %s", fc.name, code, body)
		}
	}
	assertPatternStats(t, srv2, cases, feeds/3, "replayed")
	for i, fc := range cases {
		wrong := pats[(i+1)%3]
		code, body := postJSON(t, ts2.URL+"/v1/feeds/"+fc.name+"/ingest?pattern="+string(wrong), probe)
		if code != http.StatusConflict {
			t.Fatalf("wrong-pattern ingest on replayed %s: status %d: %s", fc.name, code, body)
		}
	}
	for _, fc := range cases {
		code, body := postJSON(t, ts2.URL+"/v1/feeds/"+fc.name+"/flush", nil)
		if code != http.StatusOK {
			t.Fatalf("flush %s: status %d: %s", fc.name, code, body)
		}
		var resp convoysResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Flushed || resp.Pattern != string(fc.pat) {
			t.Fatalf("flush %s: flushed=%v pattern=%q, want flushed %s", fc.name, resp.Flushed, resp.Pattern, fc.pat)
		}
		got := map[string]int{}
		for _, c := range resp.Convoys {
			if (fc.pat == convoy.PatternMC) != (len(c.Clusters) > 0) {
				t.Fatalf("flush %s (%s): entry %v carries clusters=%d", fc.name, fc.pat, c.Objs, len(c.Clusters))
			}
			got[respKey(fc.pat, c)]++
		}
		if d := multisetDiff(fc.want, got); d != "" {
			t.Fatalf("flush %s (%s) differs from the batch oracle after kill/restart:\n%s", fc.name, fc.pat, d)
		}
	}
	checkResidentCounts(t, srv2)
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	assertPatternLog(t, path, cases, 2, true)

	// Phase 3: a second restart recovers every feed's family and flushed
	// terminal state — stats still bleed-free and counting what the log
	// holds, ingest answers 409 for the wrong family and for the right one.
	srv3, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	defer srv3.Close()
	if f := srv3.Stats().Memory.RecoveredFeeds; f != feeds {
		t.Fatalf("recovered %d feeds, want %d", f, feeds)
	}
	assertPatternStats(t, srv3, cases, feeds/3, "restarted")
	st3 := srv3.Stats()
	for _, pat := range pats {
		if st3.Patterns[string(pat)].ClosedTotal == 0 {
			t.Fatalf("recovered %s feeds report closed_total 0", pat)
		}
	}
	for i, fc := range cases {
		wrong := pats[(i+1)%3]
		code, body := postJSON(t, ts3.URL+"/v1/feeds/"+fc.name+"/ingest?pattern="+string(wrong), probe)
		if code != http.StatusConflict || !strings.Contains(string(body), string(codePatternMismatch)) {
			t.Fatalf("wrong-pattern ingest on recovered %s: status %d: %s", fc.name, code, body)
		}
	}
	for _, fc := range cases[:3] {
		code, body := postJSON(t, ts3.URL+"/v1/feeds/"+fc.name+"/ingest?pattern="+string(fc.pat), probe)
		if code != http.StatusConflict || !strings.Contains(string(body), string(codeFeedFlushed)) {
			t.Fatalf("ingest to recovered flushed %s feed: status %d: %s", fc.pat, code, body)
		}
	}
}
