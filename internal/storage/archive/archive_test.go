package archive

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// genRecords produces a deterministic pseudo-random batch of convoy-log
// records: a handful of feeds, convoy sizes 1..12, lifespans crossing
// negative ticks, and (with dupEvery > 0) periodic exact duplicates — the
// shape a real log has after evictions and re-ingest.
func genRecords(seed int64, n, dupEvery int) []storage.LoggedConvoy {
	rng := rand.New(rand.NewSource(seed))
	feeds := []string{"tokyo", "osaka", "kyoto", "nara", ""}
	recs := make([]storage.LoggedConvoy, 0, n)
	for i := 0; i < n; i++ {
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			recs = append(recs, recs[rng.Intn(len(recs))])
			continue
		}
		size := 1 + rng.Intn(12)
		ids := make([]int32, size)
		for j := range ids {
			ids[j] = int32(rng.Intn(64)) - 8
		}
		start := int32(rng.Intn(140)) - 20
		end := start + int32(rng.Intn(30))
		recs = append(recs, storage.LoggedConvoy{
			Feed:   feeds[rng.Intn(len(feeds))],
			Convoy: model.NewConvoy(model.NewObjSet(ids...), start, end),
		})
	}
	return recs
}

// writeLog writes records (plus interleaved flush markers) to a fresh
// convoy log; the non-marker records are what the archive must serve.
func writeLog(t testing.TB, path string, recs []storage.LoggedConvoy) {
	t.Helper()
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 { // flush markers ride along in real logs; archive skips them
			if err := l.AppendRecord(storage.LoggedConvoy{Feed: r.Feed, Convoy: storage.FlushMarker()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// canon maps a record set to a sorted multiset of canonical strings, the
// comparison form used throughout: two result sets are equal iff their
// canonical forms are byte-identical.
func canon(recs []storage.LoggedConvoy) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Feed + "\x00" + r.Convoy.Key()
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, label string, got, want []storage.LoggedConvoy) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d records, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: record %d differs:\n got %q\nwant %q", label, i, g[i], w[i])
		}
	}
}

// collect pages through a query until exhaustion, asserting cursor
// round-trips survive transport encoding.
func collect(t testing.TB, run func(Query) (Result, error), q Query) []storage.LoggedConvoy {
	t.Helper()
	var out []storage.LoggedConvoy
	for page := 0; ; page++ {
		res, err := run(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Records...)
		if !res.More {
			return out
		}
		cur, err := ParseCursor(res.Next.String())
		if err != nil {
			t.Fatalf("page %d: cursor failed transport round-trip: %v", page, err)
		}
		q.Cursor = cur
		if page > 1<<20 {
			t.Fatal("query never exhausted")
		}
	}
}

// matches is the brute-force reference predicate for all three query
// shapes (oid < 0 disables the membership test, overlap nil disables the
// interval test).
func matches(rec storage.LoggedConvoy, q Query, overlap *model.Interval, oid *int32) bool {
	c := rec.Convoy
	if len(c.Objs) < q.MinSize || c.Len() < q.MinDur {
		return false
	}
	if q.Feed != "" && rec.Feed != q.Feed {
		return false
	}
	if overlap != nil && !c.Interval().Overlaps(*overlap) {
		return false
	}
	if oid != nil && !c.Objs.Contains(*oid) {
		return false
	}
	return true
}

func brute(recs []storage.LoggedConvoy, q Query, overlap *model.Interval, oid *int32) []storage.LoggedConvoy {
	var out []storage.LoggedConvoy
	for _, r := range recs {
		if matches(r, q, overlap, oid) {
			out = append(out, r)
		}
	}
	return out
}

func TestArchiveAddAndQuery(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(1, 400, 13)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if a.Count() != int64(len(recs)) {
		t.Fatalf("count %d, want %d", a.Count(), len(recs))
	}

	// Flush markers handed to AddBatch are skipped, not archived.
	if err := a.AddBatch([]storage.LoggedConvoy{{Feed: "tokyo", Convoy: storage.FlushMarker()}}); err != nil {
		t.Fatal(err)
	}
	if a.Count() != int64(len(recs)) {
		t.Fatalf("flush marker was archived: count %d", a.Count())
	}

	iv := model.Interval{Start: 10, End: 40}
	q := Query{MinSize: 3, MinDur: 5, Limit: 17}
	got := collect(t, func(q Query) (Result, error) { return a.QueryTime(iv.Start, iv.End, q) }, q)
	sameSet(t, "time query", got, brute(recs, q, &iv, nil))

	for _, oid := range []int32{-8, 0, 17, 99 /* absent */} {
		oid := oid
		got := collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{Limit: 10})
		sameSet(t, fmt.Sprintf("object query oid=%d", oid), got, brute(recs, Query{}, nil, &oid))
	}

	q = Query{MinSize: 6, MinDur: 12, Feed: "osaka", Limit: 5}
	got = collect(t, func(q Query) (Result, error) { return a.QueryConvoys(q) }, q)
	sameSet(t, "convoys query", got, brute(recs, q, nil, nil))
}

func TestArchiveQueryBudgetPaging(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(2, 300, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	// A tiny budget with a selective predicate: every page examines at most
	// Budget entries, yet paging to exhaustion still finds everything.
	q := Query{MinSize: 11, Budget: 16, Limit: 1000}
	var pages, scanned int
	var got []storage.LoggedConvoy
	for {
		res, err := a.QueryConvoys(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scanned > 16 {
			t.Fatalf("page examined %d entries, budget was 16", res.Scanned)
		}
		pages++
		scanned += res.Scanned
		got = append(got, res.Records...)
		if !res.More {
			break
		}
		q.Cursor = res.Next
	}
	want := brute(recs, Query{MinSize: 11}, nil, nil)
	sameSet(t, "budget paging", got, want)
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d (scanned %d)", pages, scanned)
	}
}

func TestArchiveReopen(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(3, 250, 11)
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(recs[:150]); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 150 {
		t.Fatalf("reopened count %d, want 150", a.Count())
	}
	if err := a.AddBatch(recs[150:]); err != nil {
		t.Fatal(err)
	}
	iv := model.Interval{Start: 0, End: 200}
	got := collect(t, func(q Query) (Result, error) { return a.QueryTime(iv.Start, iv.End, q) }, Query{Limit: 23})
	sameSet(t, "after reopen", got, brute(recs, Query{}, &iv, nil))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveReopenStaleMeta simulates the crash window where index
// memtables died before reaching SSTables: the META watermark is erased
// (worse than any real crash leaves it), so Open must discard the indexes,
// re-index the whole log and answer queries correctly.
func TestArchiveReopenStaleMeta(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(4, 200, 0)
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	if a, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	oid := int32(5)
	got := collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{})
	sameSet(t, "stale meta", got, brute(recs, Query{}, nil, &oid))
}

// TestArchiveIdleFlushKeepsMeta pins that Flush writes META only when
// something was indexed or expired since the last write: a server flushes
// its archive on a fixed tick, and an idle one must not pay a tmp write,
// two fsyncs and a rename each time. The replacement is atomic (a rename),
// so a rewrite shows as a new inode.
func TestArchiveIdleFlushKeepsMeta(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(6, 60, 0)
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	metaPath := filepath.Join(dir, metaName)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	if err := a.AddBatch(recs[:30]); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	before := stat()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, stat()) {
		t.Fatal("an idle Flush rewrote META")
	}
	if err := a.AddBatch(recs[30:]); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, stat()) {
		t.Fatal("Flush after AddBatch left META as it was")
	}
}

// TestArchiveReopenTornRecords cuts the standalone archive's log mid-record
// (a crash during an append before the fsync) and checks Open truncates the
// tail and serves the surviving records.
func TestArchiveReopenTornRecords(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(5, 50, 0)
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Erase META too: a torn tail plus a fresh watermark is the
	// worst-case combination (full re-index over a truncated file).
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	recsPath := filepath.Join(dir, recordsName)
	data, err := os.ReadFile(recsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recsPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Count() != int64(len(recs)-1) {
		t.Fatalf("count %d after torn tail, want %d", a.Count(), len(recs)-1)
	}
	iv := model.Interval{Start: -100, End: 300}
	got := collect(t, func(q Query) (Result, error) { return a.QueryTime(iv.Start, iv.End, q) }, Query{})
	sameSet(t, "torn records", got, brute(recs[:len(recs)-1], Query{}, &iv, nil))
}

func TestParseCursor(t *testing.T) {
	if c, err := ParseCursor(""); err != nil || !c.IsZero() {
		t.Fatalf("empty cursor: %v %v", c, err)
	}
	for _, bad := range []string{"zz", "00112233", "00112233445566778899"} {
		if _, err := ParseCursor(bad); err == nil {
			t.Fatalf("malformed cursor %q accepted", bad)
		}
	}
}

// TestArchiveOpenEmptyRecordsFile: a crash right after archive creation
// leaves a 0-byte (or header-short) log — the header sits in the write
// buffer until the first sync. Open must recover exactly like
// OpenConvoyLogFrom does (recreate), not fail every subsequent startup.
func TestArchiveOpenEmptyRecordsFile(t *testing.T) {
	for name, content := range map[string][]byte{"empty": {}, "short": []byte("K2C")} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, recordsName), content, 0o644); err != nil {
				t.Fatal(err)
			}
			a, err := Open(dir, nil)
			if err != nil {
				t.Fatalf("Open with %s records file: %v", name, err)
			}
			defer a.Close()
			recs := genRecords(91, 20, 0)
			if err := a.AddBatch(recs); err != nil {
				t.Fatal(err)
			}
			got := collect(t, func(q Query) (Result, error) { return a.QueryConvoys(q) }, Query{})
			sameSet(t, "after recovery", got, recs)
		})
	}
}

// TestArchiveUnsatisfiablePredicates: a min_size beyond the codec's convoy
// cap or a min_dur beyond any int32 lifespan must answer one empty page,
// not walk the whole index in budget-sized chunks of nothing.
func TestArchiveUnsatisfiablePredicates(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.AddBatch(genRecords(17, 200, 0)); err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]Query{
		"size": {MinSize: maxConvoySize + 1},
		"dur":  {MinDur: 1 << 32},
	} {
		for qname, run := range map[string]func(Query) (Result, error){
			"convoys": a.QueryConvoys,
			"time":    func(q Query) (Result, error) { return a.QueryTime(-100, 300, q) },
			"object":  func(q Query) (Result, error) { return a.QueryObject(1, q) },
		} {
			res, err := run(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, qname, err)
			}
			if len(res.Records) != 0 || res.More || res.Scanned != 0 {
				t.Fatalf("%s/%s: got %d records, more=%v, scanned=%d — want an immediately empty page",
					name, qname, len(res.Records), res.More, res.Scanned)
			}
		}
	}
}

// TestArchiveReopenReadBack writes through one handle and reads every
// record back through a fresh one, for both ways of opening an archive: the
// reopened archive indexes nothing again (the checkpoint covers the whole
// log), was not rebuilt, and all three query shapes equal brute force. The
// archive directory of a log-backed archive holds indexes and META only —
// the log is the one copy of the records.
func TestArchiveReopenReadBack(t *testing.T) {
	recs := genRecords(8, 300, 11)
	readBack := func(t *testing.T, a *Archive) {
		t.Helper()
		if a.Count() != int64(len(recs)) {
			t.Fatalf("count %d, want %d", a.Count(), len(recs))
		}
		iv := model.Interval{Start: -100, End: 300}
		sameSet(t, "time", collect(t, func(q Query) (Result, error) { return a.QueryTime(iv.Start, iv.End, q) }, Query{Limit: 41}), recs)
		sameSet(t, "convoys", collect(t, a.QueryConvoys, Query{Limit: 41}), recs)
		for oid := int32(-8); oid < 56; oid += 9 {
			oid := oid
			sameSet(t, fmt.Sprintf("object %d", oid),
				collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{Limit: 41}),
				brute(recs, Query{}, nil, &oid))
		}
	}
	t.Run("standalone", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, added, rebuilt, err := open(dir, filepath.Join(dir, recordsName), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if added != 0 || rebuilt {
			t.Fatalf("reopen indexed %d records (rebuilt=%v), want nothing to do", added, rebuilt)
		}
		readBack(t, r)
	})
	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		logPath := filepath.Join(t.TempDir(), "closed.k2cl")
		writeLog(t, logPath, recs)
		w, added, _, err := OpenAndBackfill(dir, logPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		if added != int64(len(recs)) {
			t.Fatalf("backfill indexed %d records, want %d", added, len(recs))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, added, rebuilt, err := OpenAndBackfill(dir, logPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if added != 0 || rebuilt {
			t.Fatalf("reopen indexed %d records (rebuilt=%v), want nothing to do", added, rebuilt)
		}
		readBack(t, r)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if got := fmt.Sprint(names); got != "[META obj size time]" {
			t.Fatalf("archive directory holds %s, want only META and the three indexes", got)
		}
	})
}
