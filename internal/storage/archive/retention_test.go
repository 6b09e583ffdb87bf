package archive

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/durable"
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

// --- crash simulation ----------------------------------------------------

// expireCrashPoints are the protocol's crash windows, in order.
var expireCrashPoints = []string{
	"expire.watermark-committed",
	"expire.indexes-updated",
}

// armCrash installs a one-shot crash at the nth occurrence of the named
// point and returns a fired() probe. Cleanup disarms it.
func armCrash(t *testing.T, name string, nth int) func() bool {
	t.Helper()
	seen, fired := 0, false
	durable.CrashPoint = func(p string) {
		if p != name {
			return
		}
		if seen++; seen > nth {
			fired = true
			panic(durable.ErrSimulatedCrash)
		}
	}
	t.Cleanup(func() { durable.CrashPoint = nil })
	return func() bool { return fired }
}

// expectCrash runs fn absorbing the simulated-crash panic.
func expectCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil && r != durable.ErrSimulatedCrash {
			panic(r)
		}
	}()
	fn()
}

func TestExpireCrashPoints(t *testing.T) {
	const before = int32(60)
	recs := genRecords(23, 250, 7)
	for _, point := range expireCrashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			logPath := filepath.Join(t.TempDir(), "log.k2cl")
			writeLog(t, logPath, recs)
			a, _, _, err := OpenAndBackfill(dir, logPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			fired := armCrash(t, point, 0)
			expectCrash(t, func() {
				if _, err := a.Expire(before); err != nil {
					t.Errorf("Expire failed instead of crashing: %v", err)
				}
			})
			if !fired() {
				t.Fatalf("crash point %s never fired", point)
			}
			durable.CrashPoint = nil
			a.abandon()

			// Reopen: recovery must complete the expiry (the watermark was
			// the first thing committed) and serve exactly the survivors.
			a, added, rebuilt, err := OpenAndBackfill(dir, logPath, nil)
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", point, err)
			}
			if added != 0 || rebuilt {
				t.Fatalf("reopen after crash at %s: indexed %d, rebuilt=%v", point, added, rebuilt)
			}
			if st := a.Stats(); st.ExpiredBefore == nil || *st.ExpiredBefore != before {
				t.Fatalf("watermark lost across crash at %s: %+v", point, st.ExpiredBefore)
			}
			want := keepAfter(recs, before)
			if got := a.Count(); got != int64(len(want)) {
				t.Fatalf("Count() = %d after crash at %s, want %d", got, point, len(want))
			}
			sameSet(t, "after crash+reopen", collectAll(t, a, 61), want)
			sameSet(t, "size query after crash", collect(t, a.QueryConvoys, Query{}), want)
			oid := int32(3)
			sameSet(t, "object query after crash",
				collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{}),
				brute(want, Query{}, nil, &oid))

			// The repaired archive must remain fully usable: records the log
			// gains afterwards are indexed on top of it.
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			fresh := storage.LoggedConvoy{Feed: "post", Convoy: model.NewConvoy(model.NewObjSet(9, 10, 11), 70, 90)}
			appendLog(t, logPath, fresh)
			if a, _, _, err = OpenAndBackfill(dir, logPath, nil); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			sameSet(t, "write after crash", collectAll(t, a, 100), append(want, fresh))
		})
	}
}

// TestOpenCrashDuringExpiryRecovery crashes the recovery itself: Open is
// finishing an interrupted expiry when the process dies again. The next
// Open must still converge.
func TestOpenCrashDuringExpiryRecovery(t *testing.T) {
	const before = int32(55)
	recs := genRecords(31, 200, 0)
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	fired := armCrash(t, "expire.watermark-committed", 0)
	expectCrash(t, func() { a.Expire(before) })
	if !fired() {
		t.Fatal("first crash never fired")
	}
	a.abandon()

	// Second crash: mid-recovery, with the tombstones written but not yet
	// flushed.
	fired = armCrash(t, "expire.indexes-updated", 0)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != durable.ErrSimulatedCrash {
					panic(r)
				}
				crashed = true
			}
		}()
		if a, err = Open(dir, nil); err != nil {
			t.Fatalf("recovery Open errored instead of crashing: %v", err)
		}
	}()
	if !crashed || !fired() {
		t.Fatal("recovery crash never fired")
	}
	durable.CrashPoint = nil

	a, err = Open(dir, nil)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer a.Close()
	sameSet(t, "after double crash", collectAll(t, a, 100), keepAfter(recs, before))
}

// FuzzArchiveCrash drives a random add/flush/expire workload, kills the
// process at a fuzz-chosen point of the expiry protocol, reopens, and
// asserts the archive serves exactly the accepted records at or past the
// reopened watermark — the brute-force model of retention.
func FuzzArchiveCrash(f *testing.F) {
	f.Add([]byte{0, 0, 10, 40, 90, 200, 130, 5, 61, 33})
	f.Add([]byte{2, 1, 7, 7, 7, 47, 255, 12, 89, 61, 200, 44, 18})
	f.Add([]byte{3, 0, 200, 100, 61, 40, 5, 5, 5, 90, 33, 250, 61})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		dir := t.TempDir()
		point := expireCrashPoints[int(data[0])%len(expireCrashPoints)]
		nth := int(data[1]) % 3
		ops := data[2:]

		// Tiny cache so index memtables actually flush and compact.
		a, err := Open(dir, &Options{CacheBytes: 3 * 4096})
		if err != nil {
			t.Fatal(err)
		}
		var submitted []storage.LoggedConvoy
		seen := 0
		durable.CrashPoint = func(p string) {
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
		durable.CrashPoint = nil
		a.abandon()

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
// instead of growing with history, giving the space back once their
// tombstones reach the bottom level. The log is not measured — it is the
// one copy of the records, retention never shrinks it (offline compaction
// does).
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
