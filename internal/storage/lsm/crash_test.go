package lsm

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
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
// entries — no lost records, and no record the model does not hold.
func verifyModel(t *testing.T, dir string, want map[[2]int32]float64) {
	t.Helper()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if got := liveKeys(t, db); got != len(want) {
		t.Fatalf("reopened DB holds %d keys, want %d", got, len(want))
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
	if err := put(db, model.Point{T: 999, OID: 1, X: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if rows, err := db.Fetch(999, model.NewObjSet(1)); err != nil || len(rows) != 1 {
		t.Fatalf("post-recovery flush broken: %v, %v", rows, err)
	}
}

// putRange puts one point per i in [lo, hi) — every key unique — and
// records each in want.
func putRange(t *testing.T, db *DB, want map[[2]int32]float64, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		k := [2]int32{int32(i % 10), int32(i)}
		want[k] = float64(i)
		if err := put(db, model.Point{T: k[0], OID: k[1], X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// seedDB writes two generations: one flushed run and one batch living only
// in the memtable, durable at the caller's next Flush. Returns the model of
// everything written.
func seedDB(t *testing.T, db *DB) map[[2]int32]float64 {
	t.Helper()
	want := map[[2]int32]float64{}
	putRange(t, db, want, 0, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	putRange(t, db, want, 200, 300)
	return want
}

// TestFlushCrashPoints kills a flush on either side of its one commit
// point and asserts the reopened DB is exactly what the manifest on disk
// names: before the commit the new sstable is an orphan and only the first
// generation is there; after it both are.
func TestFlushCrashPoints(t *testing.T) {
	for _, point := range []string{
		"flush.sstable-written",
		"flush.manifest-committed",
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, &Options{MaxTables: 100})
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int32]float64{}
			putRange(t, db, want, 0, 200)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// The second generation is in the memtable when the flush is
			// killed: it is there after reopen only if the manifest naming
			// its run was committed.
			second := map[[2]int32]float64{}
			if point == "flush.manifest-committed" {
				second = want
			}
			putRange(t, db, second, 200, 300)
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

// TestOrphanSweep: files no committed manifest references — sstables from
// uncommitted flushes/compactions and MANIFEST.tmp — are removed on Open;
// foreign files are left alone. A manifest line that names no sstable,
// such as the "wal" line of a format whose tables Open refuses anyway,
// fails Open with the line quoted, and deletes nothing.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seedDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant orphans.
	for _, name := range []string{"sst-009999.sst", manifestName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.txt"), []byte("user file"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(slices.Clone(manifest), "wal wal-000042.log\n"...)
	if err := os.WriteFile(filepath.Join(dir, manifestName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil || !strings.Contains(err.Error(), `"wal wal-000042.log"`) {
		t.Fatalf("Open over a manifest with a wal line: %v, want an error quoting the line", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sst-009999.sst")); err != nil {
		t.Fatalf("a refused Open swept an orphan: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sst-009999.sst", manifestName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s not swept (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.txt")); err != nil {
		t.Errorf("non-lsm file touched by sweep: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	verifyModel(t, dir, want)
}

// FuzzLSMCrash drives a put/overwrite/flush workload with a crash injected at
// a fuzzer-chosen occurrence of a fuzzer-chosen crash point, then checks
// the reopened DB against an exact map model. Flush — the durability
// barrier — runs after every operation, so the reopened state must equal
// the model of all completed operations — except the single in-flight
// operation at the crash, which a flush may have carried to disk and so may
// additionally be present.
func FuzzLSMCrash(f *testing.F) {
	f.Add([]byte{1, 0, 3, 7, 50, 10, 6, 4, 44, 10})
	f.Add([]byte{2, 1, 0, 0, 200, 10, 9, 10, 10, 10})
	f.Add([]byte{0, 2, 1, 9, 120, 4, 4, 4, 10, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		points := []string{
			"flush.sstable-written", "flush.manifest-committed",
			"compact.output-written", "compact.manifest-committed",
		}
		point := points[int(data[0])%len(points)]
		skip := int(data[1]) % 3 // let the point fire a few times first
		dir := t.TempDir()
		db, err := Open(dir, &Options{MemtableBytes: 1 << 11, MaxTables: 3})
		if err != nil {
			t.Fatal(err)
		}
		barrier := func() {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		want := map[[2]int32]float64{} // completed operations
		touched := map[[2]int32]bool{}
		var pendingKey [2]int32
		var pendingVal float64
		pending := false
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
				pendingKey, pendingVal, pending = k, float64(i), true
				if err := put(db, model.Point{T: k[0], OID: k[1], X: float64(i)}); err != nil {
					t.Fatal(err)
				}
				barrier()
				want[k] = float64(i)
				pending = false
				if b%11 == 10 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}()
		// Stop the compactor before disarming: with a flush after every
		// operation it is rarely idle, and it reads the hook.
		db.abandon()
		durable.CrashPoint = nil
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
				ok = pending && len(rows) == 1 && rows[0].X == pendingVal
			}
			if !ok {
				t.Fatalf("crash at %s: key %v = %v, want %v (present=%v)",
					point, k, rows, wantVal, wantPresent)
			}
		}
	})
}
