package lsm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/durable"
)

// armCrash installs a hook that simulates a process kill the first time the
// named crash point fires. The returned func reports whether it fired.
func armCrash(t *testing.T, name string) (fired func() bool) {
	t.Helper()
	hit := false
	durable.CrashPoint = func(p string) {
		if p == name && !hit {
			hit = true
			panic(durable.ErrSimulatedCrash)
		}
	}
	t.Cleanup(func() { durable.CrashPoint = nil })
	return func() bool { return hit }
}

// expectCrash runs fn and absorbs the simulated-crash panic it must raise.
func expectCrash(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil && r != durable.ErrSimulatedCrash {
			panic(r)
		}
	}()
	fn()
	t.Fatalf("operation completed without hitting the armed crash point")
}

// verifyModel checks that the reopened DB holds exactly the model's
// entries — no lost records, no duplicates (Count is exact because every
// key below is unique).
func verifyModel(t *testing.T, dir string, want map[[2]int32]float64) {
	t.Helper()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if got := db.Count(); got != uint64(len(want)) {
		t.Fatalf("reopened Count = %d, want %d (double replay or lost records)", got, len(want))
	}
	for k, x := range want {
		rows, err := db.Fetch(k[0], model.NewObjSet(k[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].X != x {
			t.Fatalf("key %v: %v, want X=%v", k, rows, x)
		}
	}
	// The reopened DB must keep working: one more full cycle.
	if err := db.Put(model.Point{T: 999, OID: 1, X: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if rows, err := db.Fetch(999, model.NewObjSet(1)); err != nil || len(rows) != 1 {
		t.Fatalf("post-recovery flush broken: %v, %v", rows, err)
	}
}

// seedDB writes two durable generations: one flushed run and one batch
// living only in the (synced) WAL. Returns the model of everything written.
func seedDB(t *testing.T, db *DB) map[[2]int32]float64 {
	t.Helper()
	want := map[[2]int32]float64{}
	var pts []model.Point
	for i := 0; i < 200; i++ {
		k := [2]int32{int32(i % 10), int32(i)}
		want[k] = float64(i)
		pts = append(pts, model.Point{T: k[0], OID: k[1], X: float64(i)})
	}
	if err := db.PutBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	pts = pts[:0]
	for i := 200; i < 300; i++ {
		k := [2]int32{int32(i % 10), int32(i)}
		want[k] = float64(i)
		pts = append(pts, model.Point{T: k[0], OID: k[1], X: float64(i)})
	}
	if err := db.PutBatch(pts); err != nil { // PutBatch syncs the WAL
		t.Fatal(err)
	}
	return want
}

// TestFlushCrashPoints kills a flush at each point between its durable
// steps and asserts the reopened DB is byte-identical to the model — in
// particular that records flushed to an sstable are never ALSO replayed
// from a stale WAL (the old ordering committed the manifest before
// resetting the WAL, so a crash in between double-counted every flushed
// record and wrote a duplicate run on the next flush).
func TestFlushCrashPoints(t *testing.T) {
	for _, point := range []string{
		"flush.wal-created",
		"flush.sstable-written",
		"flush.manifest-committed",
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, &Options{MaxTables: 100})
			if err != nil {
				t.Fatal(err)
			}
			want := seedDB(t, db)
			fired := armCrash(t, point)
			expectCrash(t, func() {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			})
			if !fired() {
				t.Fatal("crash point never fired")
			}
			durable.CrashPoint = nil
			db.abandon()
			verifyModel(t, dir, want)
		})
	}
}

// TestCompactionCrashPoints kills a full-merge compaction on either side
// of its manifest commit; both sides must reopen to exactly the model
// (before the commit the merged output is an orphan and the inputs stay
// live; after it the inputs are orphans and the output is live).
func TestCompactionCrashPoints(t *testing.T) {
	for _, point := range []string{
		"compact.output-written",
		"compact.manifest-committed",
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, &Options{MaxTables: 100})
			if err != nil {
				t.Fatal(err)
			}
			want := seedDB(t, db)
			// Second run so the merge has real work.
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if db.NumTables() < 2 {
				t.Fatalf("need ≥ 2 runs, have %d", db.NumTables())
			}
			fired := armCrash(t, point)
			expectCrash(t, func() {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			})
			if !fired() {
				t.Fatal("crash point never fired")
			}
			durable.CrashPoint = nil
			db.abandon()
			verifyModel(t, dir, want)
		})
	}
}

// TestOpenRecoveryCrash kills Open itself between the recovery flush and
// the manifest commit; the next Open must replay the same WAL again
// without loss or duplication.
func TestOpenRecoveryCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := seedDB(t, db)
	db.abandon() // crash with 100 records only in the synced WAL

	fired := armCrash(t, "open.recovered")
	expectCrash(t, func() {
		if _, err := Open(dir, &Options{MaxTables: 100}); err != nil {
			t.Fatal(err)
		}
	})
	if !fired() {
		t.Fatal("crash point never fired")
	}
	durable.CrashPoint = nil
	verifyModel(t, dir, want)
}

// TestFlushCrashWindowStagedDir is the regression for the historical
// flushLocked ordering bug, staged explicitly: a directory whose manifest
// already references the flushed run while the pre-rotation WAL still
// holds the same records. Open must not replay that WAL (it is not the
// manifest's active WAL) — with the old layout it did, double-counting
// every flushed record.
func TestFlushCrashWindowStagedDir(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := seedDB(t, db)
	fired := armCrash(t, "flush.manifest-committed")
	expectCrash(t, func() { db.Flush() })
	if !fired() {
		t.Fatal("crash point never fired")
	}
	durable.CrashPoint = nil
	db.abandon()

	// The staged state: manifest references the new run AND the new WAL,
	// while the superseded WAL (holding the just-flushed records) is still
	// on disk.
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "wal ") {
		t.Fatalf("manifest does not name a WAL:\n%s", manifest)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(wals) < 2 {
		t.Fatalf("staged dir should hold old + new WAL, found %v", wals)
	}
	verifyModel(t, dir, want)
	// After recovery the stale WAL must have been swept.
	wals, _ = filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(wals) != 1 {
		t.Fatalf("stale WALs not swept: %v", wals)
	}
}

// TestOrphanSweep: files no committed manifest references — sstables from
// uncommitted flushes/compactions, superseded WALs, MANIFEST.tmp — are
// removed on Open; foreign files are left alone.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant orphans.
	for _, name := range []string{"sst-009999.sst", "wal-009999.log", manifestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.txt"), []byte("user file"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"sst-009999.sst", "wal-009999.log", manifestName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s not swept (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.txt")); err != nil {
		t.Errorf("non-lsm file touched by sweep: %v", err)
	}
}

// FuzzLSMCrash drives a put/delete/flush workload with a crash injected at
// a fuzzer-chosen occurrence of a fuzzer-chosen crash point, then checks
// the reopened DB against an exact map model. The WAL is synced after every
// operation that returns, so the reopened state must equal the model of all
// completed operations — except the single in-flight operation at the
// crash, which a flush may have carried to disk and so may additionally be
// present.
func FuzzLSMCrash(f *testing.F) {
	f.Add([]byte{1, 0, 3, 7, 50, 10, 6, 4, 44, 10})
	f.Add([]byte{2, 1, 0, 0, 200, 10, 9, 10, 10, 10})
	f.Add([]byte{0, 2, 1, 9, 120, 4, 4, 4, 10, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		points := []string{
			"flush.wal-created", "flush.sstable-written", "flush.manifest-committed",
			"compact.output-written", "compact.manifest-committed",
		}
		point := points[int(data[0])%len(points)]
		skip := int(data[1]) % 3 // let the point fire a few times first
		dir := t.TempDir()
		db, err := Open(dir, &Options{MemtableBytes: 1 << 11, MaxTables: 3})
		if err != nil {
			t.Fatal(err)
		}
		syncWAL := func() {
			if err := db.PutBatch(nil); err != nil { // no points: just the batch's WAL sync
				t.Fatal(err)
			}
		}
		want := map[[2]int32]float64{} // completed operations
		touched := map[[2]int32]bool{}
		var pendingKey [2]int32
		var pendingVal float64
		pendingDel, pendingPut := false, false
		hits := 0
		durable.CrashPoint = func(p string) {
			if p == point {
				hits++
				if hits > skip {
					panic(durable.ErrSimulatedCrash)
				}
			}
		}
		defer func() { durable.CrashPoint = nil }()
		func() {
			defer func() {
				if r := recover(); r != nil && r != durable.ErrSimulatedCrash {
					panic(r)
				}
			}()
			for i, b := range data[2:] {
				k := [2]int32{int32(b % 8), int32(i % 32)}
				touched[k] = true
				pendingKey, pendingVal = k, float64(i)
				pendingDel, pendingPut = false, false
				if b%5 == 4 {
					pendingDel = true
					if err := db.DeleteKV(storage.EncodeKey(k[0], k[1])); err != nil {
						t.Fatal(err)
					}
					syncWAL()
					delete(want, k)
				} else {
					pendingPut = true
					if err := db.Put(model.Point{T: k[0], OID: k[1], X: float64(i)}); err != nil {
						t.Fatal(err)
					}
					syncWAL()
					want[k] = float64(i)
				}
				pendingDel, pendingPut = false, false
				if b%11 == 10 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}()
		durable.CrashPoint = nil
		db.abandon()
		db2, err := Open(dir, &Options{MaxTables: 3})
		if err != nil {
			t.Fatalf("reopen after crash at %s: %v", point, err)
		}
		defer db2.Close()
		for k := range touched {
			rows, err := db2.Fetch(k[0], model.NewObjSet(k[1]))
			if err != nil {
				t.Fatal(err)
			}
			wantVal, wantPresent := want[k]
			ok := (wantPresent && len(rows) == 1 && rows[0].X == wantVal) ||
				(!wantPresent && len(rows) == 0)
			if !ok && k == pendingKey {
				// The op in flight at the crash was in the memtable the
				// flush wrote out; its effect may legitimately show.
				ok = (pendingDel && len(rows) == 0) ||
					(pendingPut && len(rows) == 1 && rows[0].X == pendingVal)
			}
			if !ok {
				t.Fatalf("crash at %s: key %v = %v, want %v (present=%v)",
					point, k, rows, wantVal, wantPresent)
			}
		}
	})
}
