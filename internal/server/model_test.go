package server

// The whole-system oracle: seeded random steps drive a real Server from
// ingest to archive — both codecs, the reorder window, the three families,
// flush, eviction, persistence, reopen, retention and paged queries —
// against an in-memory model of what each feed name must publish and log.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/model"
	"repro/internal/storage"
)

// modelWindow is the oracle server's reorder window. Ingest swaps only
// adjacent ticks at most modelWindow apart, so no tick is ever late.
const modelWindow = 2

// modelSeams names what the seeds must cover between them; the oracle fails
// if any of these counters sums to 0.
var modelSeams = []string{
	"step:ingest", "step:flush", "step:evict", "step:persist", "step:reopen", "step:retention",
	"family:convoy", "family:flock", "family:mc", "logged:convoy", "logged:flock", "logged:mc",
	"codec:json", "codec:k2bi", "swapped", "reopen:fresh-archive", "historical-log", "expired",
	"flushed-evicted", "recreated", "replayed-incarnation", "duplicate-record", "reopened-recreated",
	"resume:held", "resume:passed", "query:nonempty",
}

// TestServerModelSeeded requires, after every step, that the live feeds
// match the model; wherever the log is complete, that it holds exactly the
// model's records, one incarnation after another; and that every paged
// archive query answers a brute-force filter of the log's unexpired
// records. An incarnation's records are its family's batch miner over the
// ticks the server has sealed — all accepted once flushed, otherwise those
// at or below the highest minus the window — without the patterns still
// open at the last sealed tick.
func TestServerModelSeeded(t *testing.T) {
	total := map[string]int{}
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			for k, n := range runModelSeed(t, seed) {
				total[k] += n
			}
		})
	}
	t.Logf("over all seeds: %v", total)
	for _, k := range modelSeams {
		if total[k] == 0 {
			t.Errorf("no seed crossed seam %q", k)
		}
	}
}

// modelInc is the model of one incarnation of a feed name.
type modelInc struct {
	name    string
	pat     convoy.Pattern
	ticks   []snapshotJSON // accepted, in tick order; none for a historical feed
	flushed bool
	recs    []storage.LoggedConvoy // memo of records: nil when stale, given for a historical feed
}

// records is what the incarnation has published, which is what its stretch
// of the log holds once persisted.
func (inc *modelInc) records(t *testing.T) []storage.LoggedConvoy {
	if inc == nil {
		return nil
	}
	if inc.recs != nil {
		return inc.recs
	}
	sealed := inc.ticks
	if !inc.flushed {
		upTo := inc.ticks[len(inc.ticks)-1].T - modelWindow
		sealed = slices.DeleteFunc(slices.Clone(sealed), func(sn snapshotJSON) bool { return sn.T > upTo })
	}
	inc.recs = []storage.LoggedConvoy{}
	if len(sealed) == 0 {
		return inc.recs
	}
	var pts []model.Point
	for _, sn := range sealed {
		for _, p := range sn.Positions {
			pts = append(pts, model.Point{OID: p.OID, T: sn.T, X: p.X, Y: p.Y})
		}
	}
	for _, r := range patternSoakRecords(t, inc.name, inc.pat, pts) {
		if inc.flushed || r.Convoy.End < sealed[len(sealed)-1].T { // alive at the last sealed tick: still open
			inc.recs = append(inc.recs, r)
		}
	}
	return inc.recs
}

// modelName is the model of one feed name.
type modelName struct {
	cur      *modelInc   // nil: not resident
	base     int         // cursor head when cur began
	done     []*modelInc // the ended incarnations, oldest first
	together []bool      // the trajectory state of its two groups
	// resumeEnd is the End of the resume point cur recovered at the last
	// reopen, with recovered records; nil once it published past it (a
	// record more), or if it recovered none.
	resumeEnd *int32
	recovered int
}

// incarnationTicks generates n ticks from t0 of two 4-object groups, OIDs
// −3…0 and 1…4, that ride together or scatter, with members dropping out
// and occasional gaps in time, so patterns of sizes 2 to 4 open and close
// in every family.
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
				sn.Positions = append(sn.Positions, positionJSON{OID: int32(4*g+j) - 3, X: x})
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

// modelKeys renders records, sorted, by family tag and their family's key;
// a flush marker is "flush", which sorts last.
func modelKeys(recs []storage.LoggedConvoy) []string {
	out := []string{}
	for _, r := range recs {
		if storage.IsMarker(r.Convoy) {
			out = append(out, "flush")
		} else {
			out = append(out, fmt.Sprintf("%d|%s", r.Pattern, loggedKey(r)))
		}
	}
	slices.Sort(out)
	return out
}

// logSegments splits a log into each feed's incarnations at its eviction
// markers.
func logSegments(recs []storage.LoggedConvoy) map[string][][]storage.LoggedConvoy {
	segs := map[string][][]storage.LoggedConvoy{}
	for _, r := range recs {
		s := segs[r.Feed]
		if s == nil {
			s = [][]storage.LoggedConvoy{nil}
		}
		if storage.IsMarker(r.Convoy) && r.Convoy.End == storage.EvictMarker().End {
			s = append(s, nil)
		} else {
			s[len(s)-1] = append(s[len(s)-1], r)
		}
		segs[r.Feed] = s
	}
	return segs
}

func runModelSeed(t *testing.T, seed int64) map[string]int {
	seams := map[string]int{}
	rng := rand.New(rand.NewSource(seed))
	cfg := restartConfig(t.TempDir())
	const ttl = time.Hour // the background loop never sweeps or persists; the test does
	cfg.Params, cfg.Window, cfg.PersistEvery, cfg.FeedTTL = patternSoakParams, modelWindow, time.Hour, ttl
	const steps = 80
	families := []convoy.Pattern{convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC}
	names := []string{"a", "b", "c"} // the names the steps act on
	models := map[string]*modelName{}
	for _, name := range names {
		models[name] = &modelName{together: []bool{true, false}}
	}
	var hist []storage.LoggedConvoy
	if seed%3 == 0 {
		// Each historical feed is one resident incarnation whose records
		// are given.
		hist = histRecords(seed, 60)
		for _, r := range hist {
			if models[r.Feed] == nil {
				models[r.Feed] = &modelName{cur: &modelInc{name: r.Feed, pat: convoy.PatternConvoy, recs: []storage.LoggedConvoy{}}}
			}
			models[r.Feed].cur.recs = append(models[r.Feed].cur.recs, r)
		}
		seams["historical-log"]++
	}
	writeConvoyLog(t, cfg.PersistPath, hist) // so the log is readable before the first persist
	all := slices.Sorted(maps.Keys(models))
	expiredBefore := int32(math.MinInt32)
	var srv *Server
	var ts *httptest.Server
	defer func() {
		if srv != nil {
			stopServer(t, srv, ts)
		}
	}()

	ingest := func(step int, name string, inc *modelInc, snaps []snapshotJSON, want int) {
		url := ts.URL + "/v1/feeds/" + name + "/ingest?pattern=" + string(inc.pat)
		var code int
		var body []byte
		if rng.Intn(2) == 0 {
			seams["codec:json"]++
			code, body = postJSON(t, url, ingestRequest{Snapshots: snaps})
		} else {
			seams["codec:k2bi"]++
			code, body = postBinary(t, url, encodeSnapshots(t, snaps))
		}
		if code != want {
			t.Fatalf("step %d: ingest %s: status %d: %s, want %d", step, name, code, body, want)
		}
	}
	resumeOf := func(name string) *resumePoint {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return srv.feeds[name].resume
	}
	// checkLog runs where every published record has been persisted: each
	// name's log holds each incarnation's records, a flushed one with its
	// flush marker.
	checkLog := func(step int) {
		segs := logSegments(readConvoyLog(t, cfg.PersistPath))
		for _, name := range all {
			m := models[name]
			got, want := segs[name], append(slices.Clone(m.done), m.cur) // cur is nil while evicted
			if len(got) == 0 {
				got = [][]storage.LoggedConvoy{nil} // a name the log never saw: one empty incarnation
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: feed %s logs %d incarnations, want %d", step, name, len(got), len(want))
			}
			for i, inc := range want {
				w := modelKeys(inc.records(t))
				if inc != nil && inc.flushed {
					w = append(w, "flush")
				}
				if g := modelKeys(got[i]); !slices.Equal(g, w) {
					t.Fatalf("step %d: feed %s incarnation %d logs %q, want %q", step, name, i, g, w)
				}
			}
		}
	}
	// checkQueries pages every query shape, with random predicates and page
	// size, and requires a brute-force filter of the log's unexpired records.
	checkQueries := func(step int) {
		feeds := []string{"", "a", "b", "c", "hist-1"}
		minSize, minDur, limit, feed := rng.Intn(10), rng.Intn(25), 1+rng.Intn(40), feeds[rng.Intn(len(feeds))]
		params := fmt.Sprintf("min_size=%d&min_dur=%d&feed=%s", minSize, minDur, feed)
		from := int32(rng.Intn(160)) - 30
		to := from + int32(rng.Intn(60))
		oid := int32(rng.Intn(80)) - 10
		logged := readConvoyLog(t, cfg.PersistPath)
		for _, shape := range []struct {
			url  string
			keep func(model.Convoy) bool
		}{
			{fmt.Sprintf("/v1/query/time?from=%d&to=%d&", from, to), func(c model.Convoy) bool { return c.Start <= to && c.End >= from }},
			{fmt.Sprintf("/v1/query/object?oid=%d&", oid), func(c model.Convoy) bool { return c.Objs.Contains(oid) }},
			{"/v1/query/convoys?", func(model.Convoy) bool { return true }},
		} {
			var want []string
			for _, r := range logged {
				c := r.Convoy
				if !storage.IsMarker(c) && c.End >= expiredBefore && len(c.Objs) >= minSize && c.Len() >= minDur &&
					(feed == "" || r.Feed == feed) && shape.keep(c) {
					want = append(want, canonConvoy(r.Feed, c))
				}
			}
			slices.Sort(want)
			if len(want) > 0 {
				seams["query:nonempty"]++
			}
			if got := pageAll(t, ts.URL+shape.url+params, limit); !slices.Equal(got, want) {
				t.Fatalf("step %d: GET %s%s, %d a page: %d convoys, brute force over the log's unexpired records finds %d",
					step, shape.url, params, limit, len(got), len(want))
			}
		}
	}
	checkState := func(step int) {
		settle(t, srv)
		checkResidentCounts(t, srv)
		st := srv.Stats()
		for _, name := range all {
			m := models[name]
			fs, resident := st.Feeds[name]
			if resident != (m.cur != nil) {
				t.Fatalf("step %d: feed %s resident = %v, want %v", step, name, resident, m.cur != nil)
			}
			if m.cur == nil {
				srv.mu.RLock()
				tomb := srv.tombs[name]
				srv.mu.RUnlock()
				if code := getJSON(t, ts.URL+"/v1/feeds/"+name+"/convoys", nil); tomb != m.base || code != http.StatusNotFound {
					t.Fatalf("step %d: evicted feed %s: tombstoned at %d, GET status %d, want %d and 404", step, name, tomb, code, m.base)
				}
				continue
			}
			head := m.base + len(m.cur.records(t))
			var resp convoysResponse
			code := getJSON(t, fmt.Sprintf("%s/v1/feeds/%s/convoys?cursor=%d", ts.URL, name, head), &resp)
			if fs.ClosedTotal != int64(head) || fs.Pattern != string(m.cur.pat) || code != http.StatusOK || resp.Flushed != m.cur.flushed {
				t.Fatalf("step %d: feed %s: closed_total %d, pattern %s, GET at the head %d, flushed %v; want %d, %s, 200, %v",
					step, name, fs.ClosedTotal, fs.Pattern, code, resp.Flushed, head, m.cur.pat, m.cur.flushed)
			}
			// A recovered feed drops its resume point exactly when it
			// publishes a pattern ending after the point's End; a feed that
			// recovered nothing never holds one.
			if m.resumeEnd != nil && len(m.cur.records(t)) > m.recovered {
				m.resumeEnd = nil
				seams["resume:passed"]++
			}
			if rp := resumeOf(name); (rp == nil) != (m.resumeEnd == nil) || rp != nil && rp.end != *m.resumeEnd {
				t.Fatalf("step %d: feed %s resumes at %+v, want End %v", step, name, rp, m.resumeEnd)
			}
		}
	}
	// open starts a server over the log, over an empty archive directory
	// when fresh, and checks what it recovered: the archive's backfill, the
	// resident feeds and each one's resume point, the End of its last
	// incarnation's last record and the records ending there. Then the
	// client re-sends every resident unflushed incarnation's ticks.
	open := func(step int, fresh bool) {
		if fresh {
			if err := os.RemoveAll(cfg.ArchiveDir); err != nil {
				t.Fatal(err)
			}
			expiredBefore = math.MinInt32
		}
		srv, ts = startServer(t, cfg)
		st, logged := srv.Stats(), readConvoyLog(t, cfg.PersistPath)
		records := int64(len(slices.DeleteFunc(slices.Clone(logged), func(r storage.LoggedConvoy) bool { return storage.IsMarker(r.Convoy) })))
		if want := map[bool]int64{true: records}[fresh]; st.Archive.Backfilled != want || st.Archive.Rebuilt {
			t.Fatalf("step %d: start indexed %d records (rebuilt %v), want %d", step, st.Archive.Backfilled, st.Archive.Rebuilt, want)
		}
		var wantResident []string
		for _, name := range all {
			if m := models[name]; m.cur != nil && (len(m.cur.records(t)) > 0 || m.cur.flushed) {
				wantResident = append(wantResident, name)
			}
		}
		if got := slices.Sorted(maps.Keys(st.Feeds)); !slices.Equal(got, wantResident) || st.Memory.RecoveredFeeds != len(got) {
			t.Fatalf("step %d: start restored %v (recovered_feeds %d), want %v", step, got, st.Memory.RecoveredFeeds, wantResident)
		}
		segs := logSegments(logged)
		for _, name := range wantResident {
			var want *resumePoint
			s := segs[name]
			for _, r := range s[len(s)-1] {
				if storage.IsMarker(r.Convoy) {
					continue
				}
				if want == nil || want.end != r.Convoy.End {
					want = &resumePoint{end: r.Convoy.End}
				}
				want.tail = append(want.tail, convoy.PatternResult{Convoy: r.Convoy, Clusters: r.Clusters})
			}
			if got := resumeOf(name); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: feed %s resumes at %+v, its log ends at %+v", step, name, got, want)
			}
			m := models[name]
			m.resumeEnd, m.recovered = nil, len(m.cur.records(t))
			if want != nil {
				m.resumeEnd = &want.end
				seams["resume:held"]++
			}
		}
		for _, name := range names {
			m := models[name]
			if m.cur != nil && len(m.done) > 0 {
				seams["reopened-recreated"]++
			}
			if m.cur != nil && !m.cur.flushed {
				ingest(step, name, m.cur, m.cur.ticks, http.StatusAccepted)
			}
		}
	}

	open(0, true)
	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		m := models[name]
		persisted := false
		switch p := rng.Float64(); {
		case p < 0.4: // ingest; an evicted name starts a new incarnation, at any clock
			seams["step:ingest"]++
			var snaps []snapshotJSON
			if m.cur == nil {
				m.cur = &modelInc{name: name, pat: families[rng.Intn(len(families))]}
				if len(m.done) > 0 {
					seams["recreated"]++
					if rng.Intn(3) == 0 {
						// A client re-sends the evicted incarnation's whole
						// stream: the new one logs the same patterns again.
						prev := m.done[len(m.done)-1]
						m.cur.pat, snaps = prev.pat, prev.ticks
						seams["replayed-incarnation"]++
					}
				}
				seams["family:"+string(m.cur.pat)]++
			}
			if snaps == nil {
				t0 := int32(rng.Intn(30)) - 10
				if n := len(m.cur.ticks); n > 0 {
					t0 = m.cur.ticks[n-1].T + 1 + int32(rng.Intn(2))
				}
				snaps = incarnationTicks(rng, t0, 1+rng.Intn(8), m.together)
			}
			sent := slices.Clone(snaps)
			for i := 0; i+1 < len(sent); i++ {
				if sent[i+1].T-sent[i].T <= modelWindow && rng.Float64() < 0.3 {
					sent[i], sent[i+1] = sent[i+1], sent[i]
					seams["swapped"]++
					i++
				}
			}
			if m.cur.flushed {
				ingest(step, name, m.cur, sent, http.StatusConflict)
				break
			}
			ingest(step, name, m.cur, sent, http.StatusAccepted)
			m.cur.ticks, m.cur.recs = append(m.cur.ticks, snaps...), nil
		case p < 0.55: // flush: the first reply is the batch miner over every accepted tick
			seams["step:flush"]++
			code, body := postJSON(t, ts.URL+"/v1/feeds/"+name+"/flush", nil)
			if want := map[bool]int{true: http.StatusNotFound, false: http.StatusOK}[m.cur == nil]; code != want {
				t.Fatalf("step %d: flush %s: status %d: %s, want %d", step, name, code, body, want)
			}
			if m.cur == nil || m.cur.flushed {
				break
			}
			m.cur.flushed, m.cur.recs = true, nil
			var resp convoysResponse
			unmarshal(t, body, &resp)
			got := []string{}
			for _, c := range resp.Convoys {
				got = append(got, fmt.Sprintf("%d|%s", logPattern(m.cur.pat), respKey(m.cur.pat, c)))
			}
			slices.Sort(got)
			if want := modelKeys(m.cur.records(t)); !resp.Flushed || resp.Pattern != string(m.cur.pat) || !slices.Equal(got, want) {
				t.Fatalf("step %d: flush %s: flushed %v, pattern %q, convoys %q; want flushed %s %q", step, name, resp.Flushed, resp.Pattern, got, m.cur.pat, want)
			}
		case p < 0.7: // evict name alone: every other feed is active an hour from now
			seams["step:evict"]++
			if m.cur == nil {
				break
			}
			settle(t, srv)
			srv.persistAll()
			now := time.Now()
			srv.mu.RLock()
			for _, f := range srv.feeds {
				f.touch(now.Add(2 * ttl).UnixNano())
			}
			srv.feeds[name].touch(now.UnixNano())
			srv.mu.RUnlock()
			srv.sweep(now.Add(ttl))
			if m.cur.flushed {
				seams["flushed-evicted"]++
			}
			m.done = append(m.done, m.cur)
			m.base += len(m.cur.records(t))
			m.cur, m.resumeEnd = nil, nil
			persisted = true
		case p < 0.8:
			seams["step:persist"]++
			settle(t, srv)
			srv.persistAll()
			persisted = true
		case p < 0.9: // expire archived records ending before a random tick
			seams["step:retention"]++
			settle(t, srv)
			before, want := int32(rng.Intn(60)), int64(0)
			for _, r := range readConvoyLog(t, cfg.PersistPath) {
				if !storage.IsMarker(r.Convoy) && r.Convoy.End >= expiredBefore && r.Convoy.End < before {
					want++
				}
			}
			expiredBefore = max(expiredBefore, before)
			code, body := postJSON(t, ts.URL+"/v1/admin/retention", retentionRequest{Before: &before})
			var resp retentionResponse
			if unmarshal(t, body, &resp); code != http.StatusOK || resp.Expired != want || resp.Before != expiredBefore {
				t.Fatalf("step %d: retention before %d: status %d: %s, want %d expired and watermark %d", step, before, code, body, want, expiredBefore)
			}
			seams["expired"] += int(want)
		default: // close, which persists everything, and reopen
			seams["step:reopen"]++
			stopServer(t, srv, ts)
			checkLog(step)
			fresh := rng.Intn(3) == 0
			if fresh {
				seams["reopen:fresh-archive"]++
			}
			open(step, fresh)
			persisted = true
		}
		checkState(step)
		if persisted {
			checkLog(step)
		}
		checkQueries(step)
	}
	stopServer(t, srv, ts)
	srv = nil
	checkLog(steps)
	seen := map[string]bool{}
	for _, r := range readConvoyLog(t, cfg.PersistPath) {
		if k := r.Feed + r.Convoy.Key(); !storage.IsMarker(r.Convoy) {
			seams["logged:"+string(patternFromLog(r.Pattern))]++
			seams["duplicate-record"] += map[bool]int{true: 1}[seen[k]]
			seen[k] = true
		}
	}
	return seams
}
