package archive

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/durable"
	"repro/internal/storage/lsm"
)

// keepAfter filters the brute-force reference by the retention watermark:
// a record survives iff its End tick is at or past the watermark.
func keepAfter(recs []storage.LoggedConvoy, before int32) []storage.LoggedConvoy {
	var out []storage.LoggedConvoy
	for _, r := range recs {
		if r.Convoy.End >= before {
			out = append(out, r)
		}
	}
	return out
}

// collectAll drains every record from the archive through the time index
// (the full-axis interval query).
func collectAll(t testing.TB, a *Archive, limit int) []storage.LoggedConvoy {
	t.Helper()
	return collect(t, func(q Query) (Result, error) {
		return a.QueryTime(math.MinInt32, math.MaxInt32, q)
	}, Query{Limit: limit})
}

// appendLog appends records to an existing convoy log.
func appendLog(t testing.TB, path string, recs ...storage.LoggedConvoy) {
	t.Helper()
	l, err := storage.OpenConvoyLogFrom(path, 0, nil)
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

func TestArchiveExpire(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "log.k2cl")
	recs := genRecords(11, 400, 9)
	writeLog(t, logPath, recs)

	a, _, _, err := OpenAndBackfill(dir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	const before = int32(60)
	expired, err := a.Expire(before)
	if err != nil {
		t.Fatal(err)
	}
	want := keepAfter(recs, before)
	if wantExpired := int64(len(recs) - len(want)); expired != wantExpired {
		t.Fatalf("Expire removed %d records, want %d", expired, wantExpired)
	}
	if expired == 0 {
		t.Fatal("test is vacuous: nothing expired")
	}
	if got := a.Count(); got != int64(len(want)) {
		t.Fatalf("Count() = %d after expiry, want %d", got, len(want))
	}

	// All three query shapes serve exactly the survivors.
	sameSet(t, "time query", collectAll(t, a, 37), want)
	oid := int32(5)
	sameSet(t, "object query",
		collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{}),
		brute(want, Query{}, nil, &oid))
	sameSet(t, "size query",
		collect(t, a.QueryConvoys, Query{MinSize: 4}),
		brute(want, Query{MinSize: 4}, nil, nil))

	// The watermark survives a reopen over the full log — which still
	// holds every expired record — without a rebuild and without
	// resurrecting expired history.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a, added, rebuilt, err := OpenAndBackfill(dir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || rebuilt {
		t.Fatalf("reopen after expiry: indexed %d, rebuilt=%v (want 0, false)", added, rebuilt)
	}
	if st := a.Stats(); st.ExpiredBefore == nil || *st.ExpiredBefore != before {
		t.Fatalf("watermark did not survive reopen: %+v", st.ExpiredBefore)
	}
	sameSet(t, "after reopen", collectAll(t, a, 100), want)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Records reaching the log below the watermark are not indexed; fresh
	// ones are.
	late := storage.LoggedConvoy{Feed: "late", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 10, before-1)}
	fresh := storage.LoggedConvoy{Feed: "fresh", Convoy: model.NewConvoy(model.NewObjSet(4, 5, 6), 10, before)}
	appendLog(t, logPath, late, fresh)
	if a, added, _, err = OpenAndBackfill(dir, logPath, nil); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if added != 1 {
		t.Fatalf("indexed %d of the two late arrivals, want only the one at the watermark", added)
	}
	want = append(want, fresh)
	sameSet(t, "after late add", collectAll(t, a, 100), want)
}

func TestExpireWatermarkMonotonic(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(3, 60, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Expire(50); err != nil {
		t.Fatal(err)
	}
	// Lower (and equal) watermarks are no-ops, not rollbacks.
	for _, before := range []int32{50, 10, math.MinInt32 + 1} {
		if n, err := a.Expire(before); err != nil || n != 0 {
			t.Fatalf("Expire(%d) after Expire(50): removed %d, err %v", before, n, err)
		}
	}
	if st := a.Stats(); st.ExpiredBefore == nil || *st.ExpiredBefore != 50 {
		t.Fatalf("watermark moved backwards: %+v", st.ExpiredBefore)
	}
	sameSet(t, "after no-op expires", collectAll(t, a, 100), keepAfter(recs, 50))
}

// TestExpireCursorStability pages a query, expires records between pages,
// and checks the second page resumes exactly where the first stopped:
// sequence numbers are log positions, so a pre-expiry cursor neither skips
// nor repeats a surviving record.
func TestExpireCursorStability(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(7, 300, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	first, err := a.QueryTime(math.MinInt32, math.MaxInt32, Query{Limit: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !first.More {
		t.Fatal("test needs more than one page")
	}
	const before = int32(55)
	if n, err := a.Expire(before); err != nil || n == 0 {
		t.Fatalf("Expire: removed %d, err %v", n, err)
	}
	rest := collect(t, func(q Query) (Result, error) {
		return a.QueryTime(math.MinInt32, math.MaxInt32, q)
	}, Query{Limit: 40, Cursor: first.Next})
	// The resumed pages must yield exactly the survivors the first page
	// did not: the time index orders by (End, seq), the first page covered
	// a prefix of End values, and expiry only removed End < before.
	got := append(append([]storage.LoggedConvoy{}, keepAfter(first.Records, before)...), rest...)
	sameSet(t, "paged across expiry", got, keepAfter(recs, before))
}

// TestExpireReadsNoRecordWritesNoEntry: Expire commits a watermark and
// nothing else. With every index flushed and the log renamed away, it
// still succeeds, counts its victims from the time index alone, and no
// index gains a run; the survivors are served once the log is back.
func TestExpireReadsNoRecordWritesNoEntry(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(5, 200, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	indexes := []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx}
	tables := make([]int, len(indexes))
	for i, idx := range indexes {
		tables[i] = idx.NumTables()
	}
	logPath, away := filepath.Join(dir, recordsName), filepath.Join(dir, "away.k2cl")
	if err := os.Rename(logPath, away); err != nil {
		t.Fatal(err)
	}
	const before = int32(50)
	want := keepAfter(recs, before)
	n, err := a.Expire(before)
	if err != nil {
		t.Fatalf("Expire with the log gone: %v", err)
	}
	if n != int64(len(recs)-len(want)) || n == 0 {
		t.Fatalf("Expire expired %d records, want %d (and more than 0)", n, len(recs)-len(want))
	}
	for i, idx := range indexes {
		if got := idx.NumTables(); got != tables[i] {
			t.Fatalf("index %d went from %d runs to %d: Expire wrote entries", i, tables[i], got)
		}
	}
	if err := os.Rename(away, logPath); err != nil {
		t.Fatal(err)
	}
	sameSet(t, "after expiry", collectAll(t, a, 100), want)
}

// TestExpireGCWaitsForMeta: garbage collection never runs ahead of META.
// An Expire whose META write fails leaves the watermark where it was,
// in memory and on disk, so a full compaction of every index keeps each
// record, and an archive reopened after a kill serves all of them.
func TestExpireGCWaitsForMeta(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := genRecords(13, 200, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// A directory at the temp path makes META's atomic replace fail.
	if err := os.Mkdir(filepath.Join(dir, metaName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Expire(50); err == nil {
		t.Fatalf("Expire succeeded (expired %d) with META unwritable", n)
	}
	if len(keepAfter(recs, 50)) == len(recs) {
		t.Fatal("test is vacuous: watermark 50 expires nothing")
	}
	if got := a.Count(); got != int64(len(recs)) {
		t.Fatalf("Count() = %d after a failed Expire, want %d", got, len(recs))
	}
	for _, idx := range []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx} {
		if err := idx.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	sameSet(t, "after the failed expiry", collectAll(t, a, 100), recs)
	a.abandon()
	if err := os.Remove(filepath.Join(dir, metaName+".tmp")); err != nil {
		t.Fatal(err)
	}
	a, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if st := a.Stats(); st.ExpiredBefore != nil {
		t.Fatalf("reopened watermark %d, want none", *st.ExpiredBefore)
	}
	sameSet(t, "reopened", collectAll(t, a, 100), recs)
	oid := int32(3)
	sameSet(t, "reopened object query",
		collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{}),
		brute(recs, Query{}, nil, &oid))
	sameSet(t, "reopened size query", collect(t, a.QueryConvoys, Query{}), recs)
}

// archiveCrashPoints are the crash points on an archive's write path: its
// indexes' flushes and compactions. Expire writes nothing but META.
var archiveCrashPoints = []string{
	"flush.sstable-written", "flush.manifest-committed",
	"compact.output-written", "compact.manifest-committed",
}

// FuzzArchiveCrash drives a random add/flush/expire workload, kills the
// process at a fuzz-chosen crash point of an index flush or compaction,
// reopens, and asserts the archive serves exactly the accepted records at
// or past the reopened watermark — the brute-force model of retention. A
// kill in a compaction stops only that index's compactor, which runs on
// its own goroutine; the workload goes on until the final abandon, as a
// process whose compactor died before it was killed.
func FuzzArchiveCrash(f *testing.F) {
	f.Add([]byte{0, 0, 10, 40, 90, 200, 130, 5, 61, 33})
	f.Add([]byte{2, 1, 7, 7, 7, 47, 255, 12, 89, 61, 200, 44, 18})
	f.Add([]byte{3, 0, 200, 100, 61, 40, 5, 5, 5, 90, 33, 250, 61})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		dir := t.TempDir()
		point := archiveCrashPoints[int(data[0])%len(archiveCrashPoints)]
		nth := int(data[1]) % 3
		ops := data[2:]

		// Tiny cache so index memtables actually flush and compact.
		a, err := Open(dir, &Options{CacheBytes: 3 * 4096})
		if err != nil {
			t.Fatal(err)
		}
		var submitted []storage.LoggedConvoy
		var mu sync.Mutex // the three compactors call the hook too
		seen := 0
		durable.CrashPoint = func(p string) {
			mu.Lock()
			defer mu.Unlock()
			if p == point {
				if seen++; seen > nth {
					panic(durable.ErrSimulatedCrash)
				}
			}
		}
		defer func() { durable.CrashPoint = nil }()

		crashed := false
		step := func(op func() error) {
			defer func() {
				if r := recover(); r != nil {
					if r != durable.ErrSimulatedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := op(); err != nil {
				t.Fatalf("op failed without crashing: %v", err)
			}
		}
		for i := 0; i < len(ops) && !crashed; i++ {
			b := ops[i]
			switch b % 7 {
			case 5:
				step(func() error { return a.Flush() })
			case 6:
				step(func() error { _, err := a.Expire(int32(b)); return err })
			default:
				end := int32(b)
				rec := storage.LoggedConvoy{
					Feed:   fmt.Sprintf("f%d", b%3),
					Convoy: model.NewConvoy(model.NewObjSet(int32(b%11), int32(b%11)+1, int32(i%5)+20), end-int32(b%13), end),
				}
				submitted = append(submitted, rec)
				step(func() error { return a.AddBatch([]storage.LoggedConvoy{rec}) })
			}
		}
		// Stop the compactors before disarming: they read the hook.
		a.abandon()
		durable.CrashPoint = nil

		a, err = Open(dir, &Options{CacheBytes: 3 * 4096})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer a.Close()
		watermark := int32(math.MinInt32)
		if st := a.Stats(); st.ExpiredBefore != nil {
			watermark = *st.ExpiredBefore
		}
		want := keepAfter(submitted, watermark)
		sameSet(t, "reopened archive vs model", collectAll(t, a, 7), want)
		if got := a.Count(); got != int64(len(want)) {
			t.Fatalf("Count() = %d, want %d", got, len(want))
		}
		// And the reopened archive keeps working.
		fresh := storage.LoggedConvoy{Feed: "post", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 300, 400)}
		if err := a.AddBatch([]storage.LoggedConvoy{fresh}); err != nil {
			t.Fatal(err)
		}
		sameSet(t, "post-recovery write", collectAll(t, a, 100), append(want, fresh))
	})
}

// TestRetentionDiskPlateau churns records through a retention window and
// asserts what retention still promises: the index directories plateau
// instead of growing with history, giving the space back as compactions
// into the oldest run drop expired entries. The log is not measured — it
// is the one copy of the records, and nothing shrinks it.
func TestRetentionDiskPlateau(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, &Options{CacheBytes: 3 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	rng := rand.New(rand.NewSource(99))
	tick := int32(0)
	addWindow := func() {
		batch := make([]storage.LoggedConvoy, 0, 40)
		for i := 0; i < 40; i++ {
			end := tick + int32(rng.Intn(10))
			ids := []int32{int32(rng.Intn(40)), int32(rng.Intn(40)) + 40, int32(rng.Intn(40)) + 80}
			batch = append(batch, storage.LoggedConvoy{
				Feed:   "churn",
				Convoy: model.NewConvoy(model.NewObjSet(ids...), end-int32(rng.Intn(20)), end),
			})
		}
		tick += 10
		if err := a.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	compactAll := func() {
		for _, db := range []interface{ Compact() error }{a.timeIdx, a.objIdx, a.sizeIdx} {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func() int64 {
		var total int64
		for _, idx := range []string{"time", "obj", "size"} {
			if err := filepath.Walk(filepath.Join(dir, idx), func(_ string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() {
					total += info.Size()
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}

	const window = int32(80) // ticks of history retained
	var base int64
	for round := 0; round < 90; round++ {
		addWindow()
		if _, err := a.Expire(tick - window); err != nil {
			t.Fatal(err)
		}
		if round == 30 {
			compactAll()
			base = measure()
		}
	}
	compactAll()
	final := measure()
	if base == 0 {
		t.Fatal("baseline measured as zero")
	}
	// 60 further rounds added ~7× the retained window's worth of records;
	// without retention reclaiming space the footprint would multiply.
	// Generous slack absorbs LSM shape variance.
	if final > base*2 {
		t.Fatalf("index footprint grew under churn with retention on: base %d bytes, final %d bytes", base, final)
	}
	if got, want := a.Count(), int64(0); got <= want {
		t.Fatalf("Count() = %d, want records retained in the live window", got)
	}
}

// BenchmarkRetentionSteadyState measures the cost of one churn round at a
// steady-state archive size: add a window of records, expire the oldest.
func BenchmarkRetentionSteadyState(b *testing.B) {
	dir := b.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rng := rand.New(rand.NewSource(7))
	tick := int32(0)
	addWindow := func() {
		batch := make([]storage.LoggedConvoy, 0, 100)
		for i := 0; i < 100; i++ {
			end := tick + int32(rng.Intn(10))
			batch = append(batch, storage.LoggedConvoy{
				Feed:   "bench",
				Convoy: model.NewConvoy(model.NewObjSet(int32(rng.Intn(200)), int32(rng.Intn(200))+200, int32(rng.Intn(200))+400), end-5, end),
			})
		}
		tick += 10
		if err := a.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	const window = int32(100)
	for i := 0; i < 12; i++ { // reach steady state before timing
		addWindow()
		if _, err := a.Expire(tick - window); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addWindow()
		if _, err := a.Expire(tick - window); err != nil {
			b.Fatal(err)
		}
	}
}
