package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// ReadConvoyLog reads every record of a convoy log, in append order. It is
// the tests' strict reference reader: unlike the lenient ScanConvoyLog, a
// log ending inside a record is an error.
func ReadConvoyLog(path string) ([]LoggedConvoy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("convoylog: open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	if err := readLogHeader(r); err != nil {
		return nil, err
	}
	var out []LoggedConvoy
	for {
		rec, _, err := readLogRecord(r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("convoylog: read record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

func TestConvoyLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []LoggedConvoy{
		{Feed: "tokyo", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)},
		{Feed: "osaka", Convoy: model.NewConvoy(model.NewObjSet(7), -5, -1)},
		{Feed: "tokyo", Convoy: model.NewConvoy(nil, 3, 3)},
		{Feed: "", Convoy: model.NewConvoy(model.NewObjSet(-1, 0, 1<<30), 100, 200)},
	}
	for _, r := range want {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Feed != want[i].Feed || !got[i].Convoy.Equal(want[i].Convoy) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestConvoyLogEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty log read %d records", len(got))
	}
}

// writeTestLog writes records to a fresh log at path and returns its bytes.
func writeTestLog(t *testing.T, path string, recs []LoggedConvoy) []byte {
	t.Helper()
	l, err := CreateConvoyLog(path)
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var tailTestRecords = []LoggedConvoy{
	{Feed: "tokyo", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)},
	{Feed: "osaka", Convoy: model.NewConvoy(model.NewObjSet(7, 8), 4, 12)},
	{Feed: "kyoto", Convoy: model.NewConvoy(model.NewObjSet(5, 6, 9, 11), 2, 8)},
}

// TestScanConvoyLogPartialTail cuts a 3-record log at every byte offset
// inside the final record and checks the lenient scan returns the two
// complete records without error, while the strict reader keeps failing.
func TestScanConvoyLogPartialTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.k2cl")
	data := writeTestLog(t, full, tailTestRecords)
	twoOff, err := ScanConvoyLogFrom(full, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := int64(len(data)) - 0 // full file length
	// Find the offset where record 3 starts: scan a 2-record log.
	two := filepath.Join(dir, "two.k2cl")
	twoData := writeTestLog(t, two, tailTestRecords[:2])
	recStart := int64(len(twoData))
	if twoOff != lastLen {
		// sanity: full-log scan consumed everything
		t.Fatalf("full scan offset %d != file length %d", twoOff, lastLen)
	}
	for cut := recStart + 1; cut < int64(len(data)); cut++ {
		torn := filepath.Join(dir, "torn.k2cl")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []LoggedConvoy
		off, err := ScanConvoyLog(torn, func(r LoggedConvoy) error { got = append(got, r); return nil })
		if err != nil {
			t.Fatalf("cut at %d: scan failed: %v", cut, err)
		}
		if off != recStart {
			t.Fatalf("cut at %d: offset %d, want %d", cut, off, recStart)
		}
		if len(got) != 2 || got[0].Feed != "tokyo" || got[1].Feed != "osaka" {
			t.Fatalf("cut at %d: replayed %d records %+v, want the 2 complete ones", cut, len(got), got)
		}
		if _, err := ReadConvoyLog(torn); err == nil {
			t.Fatalf("cut at %d: strict reader accepted a torn log", cut)
		}
	}
}

// TestOpenConvoyLogRecovery opens a torn log for append: the partial tail
// must be truncated away and a subsequent append must produce a clean,
// strictly readable log.
func TestOpenConvoyLogRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recover.k2cl")
	data := writeTestLog(t, path, tailTestRecords)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed []LoggedConvoy
	l, err := OpenConvoyLogFrom(path, 0, func(_ int64, r LoggedConvoy) error { replayed = append(replayed, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2", len(replayed))
	}
	extra := LoggedConvoy{Feed: "nara", Convoy: model.NewConvoy(model.NewObjSet(42), 0, 5)}
	if err := l.AppendRecord(extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConvoyLog(path) // strict: recovery left no torn bytes
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]LoggedConvoy{}, tailTestRecords[:2]...), extra)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Feed != want[i].Feed || !got[i].Convoy.Equal(want[i].Convoy) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestOpenConvoyLogShortFile: a file shorter than the header (crash before
// the first sync) is recreated, not an error.
func TestOpenConvoyLogShortFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{"empty.k2cl": {}, "partialhdr.k2cl": []byte("K2C")} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenConvoyLogFrom(path, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.AppendRecord(LoggedConvoy{Feed: "f", Convoy: model.NewConvoy(model.NewObjSet(1), 0, 3)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadConvoyLog(path); err != nil || len(got) != 1 {
			t.Fatalf("%s: read %d records, err %v; want 1 record", name, len(got), err)
		}
	}
}

// BenchmarkConvoyLogAppend measures the persistence hot path: serialising
// and buffering one 8-object convoy record (no fsync).
func BenchmarkConvoyLogAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	c := model.NewConvoy(model.NewObjSet(1, 2, 3, 4, 5, 6, 7, 8), 0, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendRecord(LoggedConvoy{Feed: "bench-feed", Convoy: c}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvoyLogScan measures startup recovery: replaying a 10k-record
// log.
func BenchmarkConvoyLogScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		b.Fatal(err)
	}
	c := model.NewConvoy(model.NewObjSet(1, 2, 3, 4, 5, 6, 7, 8), 0, 99)
	for i := 0; i < 10000; i++ {
		if err := l.AppendRecord(LoggedConvoy{Feed: "bench-feed", Convoy: c}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := ScanConvoyLog(path, func(LoggedConvoy) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatalf("scanned %d records", n)
		}
	}
}

func TestConvoyLogRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.k2cl")
	if err := os.WriteFile(bad, []byte("not a convoy log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadConvoyLog(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	truncated := filepath.Join(dir, "trunc.k2cl")
	l, err := CreateConvoyLog(truncated)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendRecord(LoggedConvoy{Feed: "feed", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 4)})
	l.Close()
	data, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadConvoyLog(truncated); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestScanConvoyLogFromAndReadAt checks the positioned access paths the
// archive is built on: the offsets handed to the scan callback address
// record boundaries, resuming a scan from any of them yields exactly the
// suffix, ConvoyReader.ReadAt round-trips every record by offset, and
// ConvoyLog.Offset tracks the append position.
func TestScanConvoyLogFromAndReadAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pos.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var appendOffs []int64
	for _, r := range tailTestRecords {
		appendOffs = append(appendOffs, l.Offset())
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Offset()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if end != st.Size() {
		t.Fatalf("Offset() %d != file size %d", end, st.Size())
	}

	var scanOffs []int64
	off, err := ScanConvoyLogFrom(path, 0, func(off int64, rec LoggedConvoy) error {
		scanOffs = append(scanOffs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if off != end {
		t.Fatalf("scan end %d, want %d", off, end)
	}
	if len(scanOffs) != len(appendOffs) {
		t.Fatalf("scanned %d records, want %d", len(scanOffs), len(appendOffs))
	}
	for i := range appendOffs {
		if scanOffs[i] != appendOffs[i] {
			t.Fatalf("record %d: scan offset %d, append offset %d", i, scanOffs[i], appendOffs[i])
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr := NewConvoyReader(f)
	for i, want := range tailTestRecords {
		got, err := cr.ReadAt(scanOffs[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Feed != want.Feed || !got.Convoy.Equal(want.Convoy) {
			t.Fatalf("record %d: %+v, want %+v", i, got, want)
		}
	}
	if _, err := NewConvoyReader(f).ReadAt(end); err == nil {
		t.Fatal("ReadAt past the end succeeded")
	}

	// Resume from each boundary: the scan must yield exactly the suffix.
	for i, from := range scanOffs {
		var got []LoggedConvoy
		off, err := ScanConvoyLogFrom(path, from, func(_ int64, rec LoggedConvoy) error {
			got = append(got, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("resume at %d: %v", from, err)
		}
		if off != end || len(got) != len(tailTestRecords)-i {
			t.Fatalf("resume at %d: %d records to offset %d, want %d to %d",
				from, len(got), off, len(tailTestRecords)-i, end)
		}
		if got[0].Feed != tailTestRecords[i].Feed {
			t.Fatalf("resume at %d: first record %+v, want %+v", from, got[0], tailTestRecords[i])
		}
	}
}

// TestEncodeLoggedRecordCanonical: re-encoding a decoded record reproduces
// the on-disk bytes — the property the archive's divergence checksum needs.
func TestEncodeLoggedRecordCanonical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "canon.k2cl")
	data := writeTestLog(t, path, tailTestRecords)
	var rebuilt []byte
	if _, err := ScanConvoyLog(path, func(rec LoggedConvoy) error {
		enc, err := EncodeLoggedRecord(rec)
		if err != nil {
			return err
		}
		rebuilt = append(rebuilt, enc...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(data[ConvoyLogHeaderSize:]) {
		t.Fatal("re-encoded records differ from the on-disk bytes")
	}
}

func TestConvoyLogPatternRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "patterns.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []LoggedConvoy{
		{Feed: "tokyo", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 9)},
		{Feed: "tokyo", Convoy: model.NewConvoy(model.NewObjSet(4, 5, 6), 2, 8), Pattern: LogPatternFlock},
		{Feed: "osaka", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3, 9), 5, 7), Pattern: LogPatternMC,
			Clusters: []model.ObjSet{
				model.NewObjSet(1, 2, 3),
				model.NewObjSet(2, 3, 9),
				model.NewObjSet(3, 9),
			}},
		{Feed: "osaka", Convoy: FlushMarker()},
		{Feed: "tokyo", Convoy: EvictMarker(), Pattern: LogPatternFlock},
	}
	for _, r := range want {
		if err := l.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Feed != w.Feed || !g.Convoy.Equal(w.Convoy) || g.Pattern != w.Pattern {
			t.Fatalf("record %d: %+v, want %+v", i, g, w)
		}
		if IsMarker(g.Convoy) != (i >= 3) {
			t.Fatalf("record %d: IsMarker = %v", i, !(i >= 3))
		}
		if len(g.Clusters) != len(w.Clusters) {
			t.Fatalf("record %d: %d clusters, want %d", i, len(g.Clusters), len(w.Clusters))
		}
		for j := range w.Clusters {
			if !g.Clusters[j].Equal(w.Clusters[j]) {
				t.Fatalf("record %d cluster %d: %v, want %v", i, j, g.Clusters[j], w.Clusters[j])
			}
		}
	}

	// The codec stays canonical over tagged records: re-encoding every
	// decoded record reproduces the on-disk byte stream.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt []byte
	if _, err := ScanConvoyLog(path, func(rec LoggedConvoy) error {
		enc, err := EncodeLoggedRecord(rec)
		if err != nil {
			return err
		}
		rebuilt = append(rebuilt, enc...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(data[ConvoyLogHeaderSize:]) {
		t.Fatal("re-encoded pattern records differ from the on-disk bytes")
	}
}

func TestConvoyLogPatternRecordTornCluster(t *testing.T) {
	// A crash mid-append can tear a moving-cluster record inside its
	// cluster block; the scan must stop at the previous record boundary.
	path := filepath.Join(t.TempDir(), "torn.k2cl")
	l, err := CreateConvoyLog(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := LoggedConvoy{Feed: "a", Convoy: model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 5)}
	torn := LoggedConvoy{Feed: "b", Convoy: model.NewConvoy(model.NewObjSet(4, 5, 6), 1, 2), Pattern: LogPatternMC,
		Clusters: []model.ObjSet{model.NewObjSet(4, 5), model.NewObjSet(5, 6)}}
	if err := l.AppendRecord(whole); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRecord(torn); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	off, err := ScanConvoyLog(path, func(LoggedConvoy) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scanned %d records past a torn cluster block, want 1", n)
	}
	wholeEnc, err := EncodeLoggedRecord(whole)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(ConvoyLogHeaderSize + len(wholeEnc)); off != want {
		t.Fatalf("scan offset %d, want the last whole record boundary %d", off, want)
	}
}

func TestEncodeLoggedRecordRejectsNonCanonical(t *testing.T) {
	if _, err := EncodeLoggedRecord(LoggedConvoy{Feed: "x", Pattern: LogPatternFlock,
		Clusters: []model.ObjSet{model.NewObjSet(1)}}); err == nil {
		t.Fatal("flock record with a cluster block must be rejected")
	}
	if _, err := EncodeLoggedRecord(LoggedConvoy{Feed: "x", Pattern: 99}); err == nil {
		t.Fatal("unknown pattern id must be rejected")
	}
}
