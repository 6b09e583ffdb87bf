package archive

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// benchArchive builds a 20k-record archive once per benchmark binary.
func benchArchive(b *testing.B) *Archive {
	b.Helper()
	dir := b.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	recs := genRecords(42, 20000, 17)
	for i := 0; i < len(recs); i += 512 {
		if err := a.AddBatch(recs[i:min(i+512, len(recs))]); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkArchiveAddBatch measures the persist-path cost: 64 records per
// batch through log append + fsync + index puts.
func BenchmarkArchiveAddBatch(b *testing.B) {
	a, err := Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	recs := genRecords(7, 64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.AddBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveQueryTime measures one interval-query page against a 20k
// record archive.
func BenchmarkArchiveQueryTime(b *testing.B) {
	a := benchArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.QueryTime(20, 40, Query{MinSize: 4, Limit: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("empty page")
		}
	}
}

// BenchmarkArchiveQueryObject measures one membership-query page.
func BenchmarkArchiveQueryObject(b *testing.B) {
	a := benchArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.QueryObject(int32(i%32), Query{Limit: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("empty page")
		}
	}
}

// BenchmarkArchiveBackfill measures startup backfill of a log into a fresh
// archive. 5k records fit in the indexes' write budgets, so nothing is
// flushed before the backfill ends; 50k records flush each index several
// times mid-backfill, as a restart on a long log does. gcs/op is the number
// of garbage collections per backfill.
func BenchmarkArchiveBackfill(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) { benchBackfill(b, n) })
	}
}

func benchBackfill(b *testing.B, n int) {
	dir := b.TempDir()
	logPath := filepath.Join(dir, "closed.k2cl")
	l, err := storage.CreateConvoyLog(logPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range genRecords(13, n, 0) {
		if err := l.AppendRecord(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		archDir := filepath.Join(b.TempDir(), "archive")
		b.StartTimer()
		a, added, _, err := OpenAndBackfill(archDir, logPath, nil)
		if err != nil {
			b.Fatal(err)
		}
		if added != int64(n) {
			b.Fatalf("backfilled %d", added)
		}
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}
