package archive

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/lsm"
)

// Concurrent-reader soak: N readers page all three query shapes while a
// writer keeps archiving batches. No page may error, and once the dust
// settles the full paged result sets must be byte-identical to the
// brute-force scan of everything written — the same differential idiom as
// the 60-log suite, now with the pages that ran mid-ingest only required
// to not fail (cursor contract: concurrent arrivals may or may not appear).
func TestArchiveConcurrentReadersSoak(t *testing.T) {
	dir := t.TempDir()
	// Small cache: real SSTable flushes and block-cache traffic mid-soak.
	a, err := Open(dir, &Options{CacheBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	all := genRecords(99, 4000, 13)
	const (
		readers   = 6
		batchSize = 50
	)
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
				var err error
				switch (seed + i) % 3 {
				case 0:
					_, err = a.QueryTime(-20, 120, Query{Limit: 40})
				case 1:
					_, err = a.QueryObject((seed+i)%64-8, Query{Limit: 40})
				default:
					_, err = a.QueryConvoys(Query{MinSize: int(i % 8), Limit: 40})
				}
				if err != nil {
					readErrs.Add(1)
					return
				}
			}
		}(int32(r))
	}
	for i := 0; i < len(all); i += batchSize {
		end := min(i+batchSize, len(all))
		if err := a.AddBatch(all[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d query errors during concurrent soak", n)
	}

	// Quiescent differential: paged results ≡ brute force, byte-identical.
	iv := model.Interval{Start: -20, End: 120}
	got := collect(t, func(q Query) (Result, error) { return a.QueryTime(-20, 120, q) }, Query{Limit: 64})
	sameSet(t, "time after soak", got, brute(all, Query{}, &iv, nil))
	oid := int32(7)
	got = collect(t, func(q Query) (Result, error) { return a.QueryObject(oid, q) }, Query{Limit: 64})
	sameSet(t, "object after soak", got, brute(all, Query{}, nil, &oid))

	// Both reader gauges must drain to zero.
	st := a.Stats()
	if st.LiveReaders != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("gauges not drained: live_readers=%d live_snapshots=%d", st.LiveReaders, st.LiveSnapshots)
	}
	if st.BlockCacheHits+st.BlockCacheMisses == 0 {
		t.Fatal("block cache never touched during soak")
	}
}

// TestArchiveQueriesRaceExpire: a page racing an Expire must never error,
// and must see the archive either before or after that expiry — the exact
// brute-force set for one of the watermarks the test ratchets through,
// never a mix of expired and surviving victims. One page covers the whole
// archive, on the index that finds the victims (time) and on one that does
// not order by End at all (size).
func TestArchiveQueriesRaceExpire(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(7, MaxLimit, 0)
	for i, r := range recs {
		// Spread End ticks so successive Expire calls always have victims.
		r.Convoy = model.NewConvoy(r.Convoy.Objs, int32(i/10), int32(i/10)+int32(r.Convoy.Len())-1)
		recs[i] = r
	}
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	var watermarks []int32
	for w := int32(10); w <= 100; w += 10 {
		watermarks = append(watermarks, w)
	}
	// states maps a record count to the canonical set at the watermark that
	// leaves that many survivors (counts strictly fall as the watermark
	// rises, so the count identifies the state).
	states := map[int][]string{len(recs): canon(recs)}
	for _, w := range watermarks {
		kept := keepAfter(recs, w)
		if _, dup := states[len(kept)]; dup {
			t.Fatalf("watermark %d expires nothing; generator broken", w)
		}
		states[len(kept)] = canon(kept)
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				var res Result
				var err error
				if i%2 == 0 {
					res, err = a.QueryTime(math.MinInt32, math.MaxInt32, Query{Limit: MaxLimit})
				} else {
					res, err = a.QueryConvoys(Query{Limit: MaxLimit})
				}
				if err != nil {
					t.Errorf("query during expire race: %v", err)
					return
				}
				got := canon(res.Records)
				if want, ok := states[len(got)]; !ok || !slices.Equal(got, want) {
					t.Errorf("page of %d records is neither the pre- nor the post-expiry set of any watermark", len(got))
					return
				}
			}
		}(r)
	}
	for _, w := range watermarks {
		if _, err := a.Expire(w); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := a.Stats(); st.LiveReaders != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("gauges not drained: live_readers=%d live_snapshots=%d", st.LiveReaders, st.LiveSnapshots)
	}
}

// TestExpireDoesNotWaitForPages: Expire returns while query pages hold
// their views, and each view still lists every entry its index held before
// the expiry — the tombstones, and the flushes and compactions that carry
// them, land after the view was taken and do not reach it.
func TestExpireDoesNotWaitForPages(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(3, 300, 0)
	if err := a.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, r := range recs {
		members += len(r.Convoy.Objs)
	}
	pages := []struct {
		idx  *lsm.DB
		want int
	}{{a.timeIdx, len(recs)}, {a.objIdx, members}}
	snaps := make([]*lsm.Snapshot, len(pages))
	for i, p := range pages {
		if snaps[i], err = a.beginRead(p.idx); err != nil {
			t.Fatal(err)
		}
	}
	endReads := sync.OnceFunc(func() {
		for _, s := range snaps {
			a.endRead(s)
		}
	})
	defer endReads()
	done := make(chan error, 1)
	var expired int64
	go func() {
		var err error
		expired, err = a.Expire(60)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		endReads()
		<-done
		t.Fatal("Expire waited for the pages in flight")
	}
	if expired == 0 {
		t.Fatal("test is vacuous: nothing expired")
	}
	for i, s := range snaps {
		n := 0
		if err := s.Scan(storage.EncodeKey(math.MinInt32, math.MinInt32), func(_, _ []byte) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != pages[i].want {
			t.Fatalf("page %d lists %d entries after the expiry, want the %d it began with", i, n, pages[i].want)
		}
	}
	endReads()
	if got := collectAll(t, a, MaxLimit); len(got) != len(keepAfter(recs, 60)) {
		t.Fatalf("a page begun after the expiry lists %d records, want %d", len(got), len(keepAfter(recs, 60)))
	}
}
