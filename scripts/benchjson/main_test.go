package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkAlgoPCCD-8   	     100	  11800345 ns/op	 2048111 B/op	   12345 allocs/op
BenchmarkAlgoPCCD-8   	     102	  11650012 ns/op	 2048000 B/op	   12344 allocs/op
BenchmarkK2HopParallel/workers=4-8         	     300	   3500000 ns/op	  900000 B/op	    5000 allocs/op
PASS
ok  	repro	12.345s
pkg: repro/internal/dbscan
BenchmarkCluster1000-8	    5000	    250000 ns/op
PASS
ok  	repro/internal/dbscan	2.000s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || f.CPU != "AMD EPYC 7B13" {
		t.Fatalf("env header: %+v", f)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	// Sorted by (pkg, name): repro before repro/internal/dbscan.
	b := f.Benchmarks[0]
	if b.Pkg != "repro" || b.Name != "BenchmarkAlgoPCCD" {
		t.Fatalf("first benchmark: %+v", b)
	}
	if len(b.Samples) != 2 || b.Samples[0].Runs != 100 || b.Samples[1].NsPerOp != 11650012 {
		t.Fatalf("samples not aggregated: %+v", b.Samples)
	}
	if b.Samples[0].BytesPerOp != 2048111 || b.Samples[0].AllocsPerOp != 12345 {
		t.Fatalf("benchmem fields: %+v", b.Samples[0])
	}
	if got := b.best(); got != 11650012 {
		t.Fatalf("best = %v, want the minimum sample", got)
	}
	last := f.Benchmarks[2]
	if last.Pkg != "repro/internal/dbscan" || last.Samples[0].BytesPerOp != 0 {
		t.Fatalf("no-benchmem line: %+v", last)
	}
}

func TestMarkdownBeforeAfter(t *testing.T) {
	cur, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := cur
	base.Benchmarks = append([]Benchmark(nil), cur.Benchmarks...)
	// Baseline where PCCD was 2× slower, and the dbscan bench is new.
	base.Benchmarks[0] = Benchmark{Pkg: "repro", Name: "BenchmarkAlgoPCCD",
		Samples: []Sample{{Runs: 50, NsPerOp: 23300024}}}
	base.Benchmarks = base.Benchmarks[:2]

	base.Benchmarks = append(base.Benchmarks, Benchmark{Pkg: "repro", Name: "BenchmarkGone",
		Samples: []Sample{{Runs: 10, NsPerOp: 500}}})

	var sb strings.Builder
	markdown(&sb, cur, &base)
	out := sb.String()
	if !strings.Contains(out, "| BenchmarkAlgoPCCD | 23.30ms | 11.65ms | -50.0% |") {
		t.Fatalf("missing improvement row:\n%s", out)
	}
	if !strings.Contains(out, "| BenchmarkGone | 500ns | — | removed |") {
		t.Fatalf("missing removed-benchmark row:\n%s", out)
	}
	if !strings.Contains(out, "| internal/dbscan.BenchmarkCluster1000 | — | 250.0µs | new |") {
		t.Fatalf("missing new-benchmark row:\n%s", out)
	}

	sb.Reset()
	markdown(&sb, cur, nil)
	if !strings.Contains(sb.String(), "| benchmark | ns/op |") {
		t.Fatalf("baseline-less table malformed:\n%s", sb.String())
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":                     "BenchmarkFoo",
		"BenchmarkFoo-16":                    "BenchmarkFoo",
		"BenchmarkFoo":                       "BenchmarkFoo",
		"BenchmarkK2HopParallel/workers=4-8": "BenchmarkK2HopParallel/workers=4",
		"BenchmarkOdd-name":                  "BenchmarkOdd-name",
		"BenchmarkTrailing-":                 "BenchmarkTrailing-",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadBaselineMissing(t *testing.T) {
	// No path: no baseline requested, no note.
	base, note, err := loadBaseline("")
	if base != nil || note != "" || err != nil {
		t.Fatalf("empty path: %v %q %v", base, note, err)
	}
	// Missing file: degraded mode with a note, not an error — a first run
	// has no earlier one to compare with.
	base, note, err = loadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing baseline errored: %v", err)
	}
	if base != nil || note == "" {
		t.Fatalf("missing baseline: base=%v note=%q", base, note)
	}
	// Malformed existing file: still an error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBaseline(bad); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	// Well-formed file round-trips.
	good := filepath.Join(t.TempDir(), "good.json")
	if err := os.WriteFile(good, []byte(`{"benchmarks":[{"pkg":"p","name":"BenchmarkX","samples":[{"runs":1,"ns_per_op":42}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, note, err = loadBaseline(good)
	if err != nil || note != "" || base == nil || len(base.Benchmarks) != 1 {
		t.Fatalf("good baseline: base=%+v note=%q err=%v", base, note, err)
	}
}

const loadgenArtifact = `{
  "goos": "linux", "goarch": "amd64",
  "loadgen": {
    "config": {"feeds": 4},
    "ingest_ns": {"count": 32, "p50": 21000000, "p90": 31000000, "p99": 50000000, "max": 51000000},
    "close_lag_ns": {"count": 1660, "p50": 33000000, "p90": 59000000, "p99": 72000000, "max": 73000000},
    "shed": {"http_429": 0, "retries": 0},
    "peak_rss_bytes": 19148800
  }
}`

func TestParseInputLoadgenArtifact(t *testing.T) {
	f, err := parseInput(strings.NewReader(loadgenArtifact))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" {
		t.Fatalf("env header: %+v", f)
	}
	// p50/p90/p99 for both quantile groups, sorted by name.
	wantNames := []string{"CloseLag/p50", "CloseLag/p90", "CloseLag/p99", "Ingest/p50", "Ingest/p90", "Ingest/p99"}
	if len(f.Benchmarks) != len(wantNames) {
		t.Fatalf("converted %d pseudo-benchmarks, want %d: %+v", len(f.Benchmarks), len(wantNames), f.Benchmarks)
	}
	for i, b := range f.Benchmarks {
		if b.Name != wantNames[i] || b.Pkg != loadgenPkg {
			t.Fatalf("benchmark %d: %+v, want name %s", i, b, wantNames[i])
		}
	}
	ingest50 := f.Benchmarks[3]
	if ingest50.best() != 21000000 || ingest50.Samples[0].Runs != 32 {
		t.Fatalf("Ingest/p50: %+v", ingest50)
	}
}

func TestParseInputFilePassthrough(t *testing.T) {
	// A File-shaped JSON document (no "loadgen" key) passes through intact.
	f, err := parseInput(strings.NewReader(`{"cpu":"x","benchmarks":[{"pkg":"p","name":"BenchmarkX","samples":[{"runs":1,"ns_per_op":42}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "x" || len(f.Benchmarks) != 1 || f.Benchmarks[0].best() != 42 {
		t.Fatalf("passthrough: %+v", f)
	}
	// Bench text still parses through the same entry point.
	f, err = parseInput(strings.NewReader(benchOutput))
	if err != nil || len(f.Benchmarks) != 3 {
		t.Fatalf("text input: %+v, %v", f, err)
	}
}

func TestLoadgenBaselineMarkdown(t *testing.T) {
	// A LOAD_N.json works as -baseline: write it, load it, and diff a run
	// whose ingest p50 halved.
	path := filepath.Join(t.TempDir(), "LOAD_5.json")
	if err := os.WriteFile(path, []byte(loadgenArtifact), 0o644); err != nil {
		t.Fatal(err)
	}
	base, note, err := loadBaseline(path)
	if err != nil || note != "" || base == nil {
		t.Fatalf("loadgen baseline: %v %q %v", base, note, err)
	}
	cur, err := parseInput(strings.NewReader(strings.Replace(loadgenArtifact, `"p50": 21000000`, `"p50": 10500000`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	markdown(&sb, cur, base)
	if !strings.Contains(sb.String(), "| loadgen.Ingest/p50 | 21.00ms | 10.50ms | -50.0% |") {
		t.Fatalf("missing loadgen delta row:\n%s", sb.String())
	}
}

func TestParseJSONDocSkipsZeroQuantiles(t *testing.T) {
	f, err := parseJSONDoc([]byte(`{"loadgen":{"ingest_ns":{"count":5,"p50":100,"p90":0,"p99":200},"close_lag_ns":{"count":0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("zero quantiles recorded: %+v", f.Benchmarks)
	}
}
