package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestArchiveBackfillTornLog cuts a convoy log at every byte offset inside
// its final record — the PR 3 torn-tail harness — and checks backfill
// archives exactly the complete records, matching a brute-force scan of
// the same torn log.
func TestArchiveBackfillTornLog(t *testing.T) {
	base := t.TempDir()
	logPath := filepath.Join(base, "full.k2cl")
	recs := genRecords(77, 12, 0)
	writeLog(t, logPath, recs)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last record starts: scan everything, remember offsets.
	var offs []int64
	if _, err := storage.ScanConvoyLogFrom(logPath, 0, func(off int64, rec storage.LoggedConvoy) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lastStart := offs[len(offs)-1]
	for cut := lastStart + 1; cut < int64(len(data)); cut += 3 {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "torn.k2cl")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, added, rebuilt, err := OpenAndBackfill(filepath.Join(dir, "archive"), torn, nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		var want []storage.LoggedConvoy
		if _, err := storage.ScanConvoyLog(torn, func(r storage.LoggedConvoy) error {
			if !storage.IsMarker(r.Convoy) {
				want = append(want, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rebuilt || added != int64(len(want)) {
			t.Fatalf("cut at %d: added %d (rebuilt=%v), want %d", cut, added, rebuilt, len(want))
		}
		got := collect(t, func(q Query) (Result, error) { return a.QueryConvoys(q) }, Query{Limit: 5})
		sameSet(t, fmt.Sprintf("cut at %d", cut), got, want)
		a.Close()
	}
}

// TestArchiveBackfillReplacedLog: after the log is replaced by one holding
// the same records minus a prefix, it no longer starts with the bytes
// META's checksum covers. OpenAndBackfill must notice, discard the indexes
// and rebuild them to match the replacement exactly.
func TestArchiveBackfillReplacedLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "closed.k2cl")
	recs := genRecords(21, 150, 5) // every 5th record a duplicate
	writeLog(t, logPath, recs)
	archDir := filepath.Join(dir, "archive")

	a, added, rebuilt, err := OpenAndBackfill(archDir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt || added != int64(len(recs)) {
		t.Fatalf("initial backfill: added %d rebuilt=%v", added, rebuilt)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	dropped := replaceLogWithoutPrefix(t, logPath, 10)
	if dropped == 0 {
		t.Fatal("the replacement dropped nothing; scenario broken")
	}
	// The archive holds the replacement's non-marker records (the log also
	// holds lifecycle markers, which archives skip).
	var want []storage.LoggedConvoy
	if _, err := storage.ScanConvoyLog(logPath, func(r storage.LoggedConvoy) error {
		if !storage.IsMarker(r.Convoy) {
			want = append(want, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// OpenAndBackfill must rebuild to match the replacement — deleting
	// only archive-owned files, never an operator's unrelated ones in the
	// same directory.
	bystander := filepath.Join(archDir, "operator-notes.txt")
	if err := os.WriteFile(bystander, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, added, rebuilt, err = OpenAndBackfill(archDir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !rebuilt {
		t.Fatal("divergence did not trigger a rebuild")
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("rebuild deleted an unrelated file in the archive dir: %v", err)
	}
	if added != int64(len(want)) {
		t.Fatalf("rebuild archived %d records, want %d", added, len(want))
	}
	got := collect(t, func(q Query) (Result, error) { return a.QueryConvoys(q) }, Query{Limit: 33})
	sameSet(t, "after rebuild", got, want)
}

// replaceLogWithoutPrefix rewrites the log at path with its records minus
// the first n, through CreateConvoyLog and AppendRecord, and returns how
// many records it dropped.
func replaceLogWithoutPrefix(t *testing.T, path string, n int) int {
	t.Helper()
	var recs []storage.LoggedConvoy
	if _, err := storage.ScanConvoyLog(path, func(r storage.LoggedConvoy) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n = min(n, len(recs))
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[n:] {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestArchiveIncrementalBackfill: a second backfill after the log grew
// indexes only the new suffix, without rebuilding.
func TestArchiveIncrementalBackfill(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "closed.k2cl")
	recs := genRecords(31, 100, 0)
	writeLog(t, logPath, recs[:60])
	archDir := filepath.Join(dir, "archive")

	a, added, _, err := OpenAndBackfill(archDir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 60 {
		t.Fatalf("first backfill added %d, want 60", added)
	}
	a.Close()

	// Grow the log (OpenConvoyLogFrom appends past the existing records).
	l, err := storage.OpenConvoyLogFrom(logPath, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[60:] {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	a, added, rebuilt, err := OpenAndBackfill(archDir, logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if rebuilt || added != 40 {
		t.Fatalf("second backfill added %d (rebuilt=%v), want 40 without rebuild", added, rebuilt)
	}
	got := collect(t, func(q Query) (Result, error) { return a.QueryConvoys(q) }, Query{Limit: 13})
	sameSet(t, "incremental", got, recs)
}

// TestArchiveCursorStabilityUnderAppends pages through a query with a tiny
// page size while a writer keeps appending. Pagination must never yield
// the same record twice, and must deliver every matching record that was
// archived before the first page — the stability contract concurrent
// clients rely on.
func TestArchiveCursorStabilityUnderAppends(t *testing.T) {
	a, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Records with unique identities: convoy i spans [i, i+dur) with a
	// distinguishing object id.
	mk := func(i int) storage.LoggedConvoy {
		return storage.LoggedConvoy{
			Feed: "feed",
			Convoy: model.NewConvoy(
				model.NewObjSet(int32(i), int32(i)+1000, int32(i)+2000),
				int32(i), int32(i)+4),
		}
	}
	const initial, extra = 300, 300
	for i := 0; i < initial; i++ {
		if err := a.AddBatch([]storage.LoggedConvoy{mk(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := initial; i < initial+extra; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.AddBatch([]storage.LoggedConvoy{mk(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	seen := map[string]bool{}
	q := Query{MinSize: 3, Limit: 7}
	for {
		res, err := a.QueryConvoys(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			key := r.Feed + "\x00" + r.Convoy.Key()
			if seen[key] {
				t.Fatalf("record %q returned twice across pages", key)
			}
			seen[key] = true
		}
		if !res.More {
			break
		}
		q.Cursor = res.Next
	}
	close(stop)
	wg.Wait()

	for i := 0; i < initial; i++ {
		r := mk(i)
		if !seen[r.Feed+"\x00"+r.Convoy.Key()] {
			t.Fatalf("record %d (archived before the first page) missing from paged results", i)
		}
	}
}
