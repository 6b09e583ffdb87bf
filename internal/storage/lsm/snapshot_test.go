package lsm

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// A snapshot taken before a compaction must keep reading the tables the
// compaction retired: the files stay open (and on disk) until the snapshot
// releases, and only then are they unlinked.
func TestSnapshotPinsTablesAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100}) // no background merges yet
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Four runs, 100 keys each, values identify the run that wrote them.
	for run := 0; run < 4; run++ {
		for oid := int32(0); oid < 100; oid++ {
			if err := put(db, model.Point{T: int32(run), OID: oid, X: float64(run)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumTables() != 4 {
		t.Fatalf("snapshot pins %d tables, want 4", snap.NumTables())
	}
	pinned := make([]string, 0, 4)
	for _, tab := range snap.tables {
		pinned = append(pinned, tab.path)
	}

	// Compact everything into one run while the snapshot is live.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := db.NumTables(); n != 1 {
		t.Fatalf("post-compaction table count = %d, want 1", n)
	}
	// The retired input files must still exist — the snapshot references
	// them — and must still be readable through the snapshot.
	for _, p := range pinned {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("input table %s unlinked while snapshot still references it: %v", p, err)
		}
	}
	for oid := int32(0); oid < 100; oid++ {
		v, err := snapGet(snap, 3, oid)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			t.Fatalf("snapshot lost key (3,%d) after compaction", oid)
		}
		if x, _ := storage.DecodeValue(v); x != 3 {
			t.Fatalf("snapshot read %f for (3,%d), want 3", x, oid)
		}
	}

	// Release drains the last reference: the inputs are unlinked.
	snap.Release()
	for _, p := range pinned {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("input table %s still on disk after last reference released (err=%v)", p, err)
		}
	}
	if got := db.ReadStats().LiveSnapshots; got != 0 {
		t.Fatalf("LiveSnapshots = %d after release, want 0", got)
	}
}

// Release is idempotent and the live-snapshot gauge drains to zero.
func TestSnapshotReleaseIdempotent(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := put(db, model.Point{T: 1, OID: 1, X: 1}); err != nil {
		t.Fatal(err)
	}
	s1, _ := db.AcquireSnapshot()
	s2, _ := db.AcquireSnapshot()
	if got := db.ReadStats().LiveSnapshots; got != 2 {
		t.Fatalf("LiveSnapshots = %d, want 2", got)
	}
	s1.Release()
	s1.Release() // double release must not underflow the refcounts
	s2.Release()
	var nilSnap *Snapshot
	nilSnap.Release() // nil-safe
	if got := db.ReadStats().LiveSnapshots; got != 0 {
		t.Fatalf("LiveSnapshots = %d after releases, want 0", got)
	}
	if v, err := get(db, 1, 1); err != nil || v == nil {
		t.Fatalf("db unreadable after snapshot churn: v=%v err=%v", v, err)
	}
}

// Concurrent snapshot readers vs a writer that keeps flushing and a
// compactor that keeps retiring tables: every read must see a complete,
// consistent value and the run must be race-clean (the -race CI job is the
// real assertion). This is the reader-vs-compaction interleaving soak.
func TestConcurrentReadersDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny memtable + low MaxTables: constant flush + compaction churn.
	db, err := Open(dir, &Options{MemtableBytes: 8 << 10, MaxTables: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const (
		readers = 8
		keys    = 512
		rounds  = 40
	)
	// Seed every key so readers always find something.
	for oid := int32(0); oid < keys; oid++ {
		if err := put(db, model.Point{T: 0, OID: oid, X: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		stop     atomic.Bool
		readErrs atomic.Int64
		wg       sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			for i := int32(0); !stop.Load(); i++ {
				oid := (seed*7919 + i) % keys
				v, err := get(db, 0, oid)
				if err != nil || v == nil {
					readErrs.Add(1)
					return
				}
				if x, _ := storage.DecodeValue(v); x < 1 {
					readErrs.Add(1)
					return
				}
				// Periodic scans exercise the merged iterator path too.
				if i%64 == 0 {
					n := 0
					if err := db.Scan(storage.EncodeKey(0, -1<<31), func(k, _ []byte) bool {
						n++
						return n < 100
					}); err != nil {
						readErrs.Add(1)
						return
					}
				}
			}
		}(int32(r))
	}
	// Writer: keep overwriting keys with increasing values, forcing
	// flushes and compactions under the readers.
	for round := 1; round <= rounds; round++ {
		for oid := int32(0); oid < keys; oid++ {
			if err := put(db, model.Point{T: 0, OID: oid, X: float64(round + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.waitCompactions()
	stop.Store(true)
	wg.Wait()
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d reader errors during compaction churn", n)
	}
	if got := db.ReadStats().LiveSnapshots; got != 0 {
		t.Fatalf("LiveSnapshots = %d after soak, want 0", got)
	}
}

// The tentpole property, provable without multi-core wall-clock: a scan
// parked mid-callback holds NO database lock, so writes, flushes (which
// take the write lock) and other reads all complete while it is parked.
// Under the old design — db.mu held for the whole scan — this test
// deadlocks at the first write.
func TestScanDoesNotBlockWrites(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for oid := int32(0); oid < 100; oid++ {
		if err := put(db, model.Point{T: 1, OID: oid, X: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		scanDone <- db.Scan(storage.EncodeKey(1, -1<<31), func(k, v []byte) bool {
			once.Do(func() { close(started) })
			<-release // park the scan mid-page
			return false
		})
	}()
	<-started
	// All of these would block forever if the scan held db.mu.
	if err := put(db, model.Point{T: 2, OID: 0, X: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := get(db, 2, 0); err != nil || v == nil {
		t.Fatalf("concurrent read failed: v=%v err=%v", v, err)
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
}

// The read-path counters must move: repeated Fetch walks over the same
// blocks hit the shared block cache, and the bloom counters, kept only for
// the benchmark, stay at zero.
func TestReadStatsCounters(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for oid := int32(0); oid < 1000; oid++ {
		if err := put(db, model.Point{T: 1, OID: oid * 2, X: float64(oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Present keys, one at a time, twice: every lookup loads its block
	// through the cache, and the second pass must be all cache hits.
	for pass := 0; pass < 2; pass++ {
		for oid := int32(0); oid < 1000; oid++ {
			if rows, err := db.Fetch(1, model.NewObjSet(oid*2)); err != nil || len(rows) != 1 {
				t.Fatalf("Fetch of present key = %v, %v", rows, err)
			}
		}
		if pass == 0 && db.ReadStats().BlockCacheMisses == 0 {
			t.Fatal("BlockCacheMisses = 0 after the first reads of a fresh table")
		}
	}
	rs := db.ReadStats()
	if rs.BlockCacheHits < 1000 {
		t.Fatalf("BlockCacheHits = %d after re-reading the same blocks, want ≥ 1000", rs.BlockCacheHits)
	}
	// Absent keys (odd oids) still answer nil.
	for oid := int32(0); oid < 1000; oid++ {
		if rows, err := db.Fetch(1, model.NewObjSet(oid*2+1)); err != nil || len(rows) != 0 {
			t.Fatalf("absent key returned %v, %v", rows, err)
		}
	}
	if rs := db.ReadStats(); rs.BloomHits != 0 || rs.BloomMisses != 0 {
		t.Fatalf("bloom counters = %d/%d, want 0: there is no bloom filter", rs.BloomHits, rs.BloomMisses)
	}
}

// BenchmarkScanUnderWrites measures merged range-scan throughput while a
// background writer keeps appending (the archive's query-during-ingest
// shape), sweeping the scanner count.
func BenchmarkScanUnderWrites(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("scanners=%d", g), func(b *testing.B) {
			db, err := Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			const keys = 1 << 15
			for i := 0; i < keys; i++ {
				if err := put(db, model.Point{T: int32(i >> 7), OID: int32(i & 0x7f), X: float64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var writerDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = put(db, model.Point{T: int32(i % 512), OID: int32(i & 0x7f), X: float64(i)})
				}
			}()
			var wg sync.WaitGroup
			per := b.N / g
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						t := int32((seed*31 + i) % 512)
						n := 0
						if err := db.Scan(storage.EncodeKey(t, -1<<31), func(k, v []byte) bool {
							n++
							return n < 128 // one bounded page
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			writerDone.Wait()
		})
	}
}
