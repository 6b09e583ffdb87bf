// Command benchjson converts `go test -bench` text output into a stable
// JSON document, and renders a markdown before/after table against a
// baseline JSON file of an earlier run. No baseline is committed and CI
// gates on none — bench/'s -compare is the repository's before/after; this
// is the by-hand tool for `go test -bench` output:
//
//	go test -run '^$' -bench=. -benchmem -count=3 ./... | tee bench.txt
//	benchjson -o after.json bench.txt                      # text → JSON
//	benchjson -md -baseline before.json bench.txt          # markdown table
//
// With no input file the bench text is read from stdin. Multiple samples
// per benchmark (from -count) are all recorded; comparisons use the best
// (minimum) ns/op, the usual way to damp scheduler noise.
//
// Input (and -baseline) files may also be JSON: a benchjson File passes
// through unchanged, and a cmd/loadgen artifact (detected by its "loadgen"
// key) is converted into pseudo-benchmarks — the ingest, close-lag and
// query latency quantiles as loadgen.Ingest/pNN, loadgen.CloseLag/pNN and
// loadgen.Query/pNN — which is how CI's loadgen job renders LOAD_7.json
// into its run summary:
//
//	go run ./cmd/loadgen -o LOAD_7.json
//	benchjson -md LOAD_7.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Sample is one benchmark line's measurements.
type Sample struct {
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Benchmark groups the samples of one benchmark function (-count > 1
// yields several).
type Benchmark struct {
	Pkg     string   `json:"pkg"`
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
}

// File is the JSON document: environment header plus all benchmarks,
// sorted by (pkg, name) for stable diffs.
type File struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseBench reads `go test -bench` output. Lines it does not recognise
// (test chatter, PASS/ok lines) are skipped.
func parseBench(r io.Reader) (File, error) {
	var f File
	idx := map[string]int{} // "pkg\x00name" → index into f.Benchmarks
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			f.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. a "Benchmarking..." chatter line
		}
		s := Sample{Runs: runs}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if s.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
					ok = true
				}
			case "B/op":
				s.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				s.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if !ok {
			continue
		}
		name := normalizeName(fields[0])
		key := pkg + "\x00" + name
		i, seen := idx[key]
		if !seen {
			i = len(f.Benchmarks)
			idx[key] = i
			f.Benchmarks = append(f.Benchmarks, Benchmark{Pkg: pkg, Name: name})
		}
		f.Benchmarks[i].Samples = append(f.Benchmarks[i].Samples, s)
	}
	if err := sc.Err(); err != nil {
		return f, err
	}
	sort.Slice(f.Benchmarks, func(a, b int) bool {
		if f.Benchmarks[a].Pkg != f.Benchmarks[b].Pkg {
			return f.Benchmarks[a].Pkg < f.Benchmarks[b].Pkg
		}
		return f.Benchmarks[a].Name < f.Benchmarks[b].Name
	})
	return f, nil
}

// loadQuantiles mirrors one quantile block of a cmd/loadgen artifact.
type loadQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// loadgenDoc is the subset of a cmd/loadgen LOAD_N.json artifact benchjson
// consumes. The presence of the "loadgen" key is what distinguishes the
// artifact from a benchjson File.
type loadgenDoc struct {
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	CPU     string `json:"cpu"`
	Loadgen *struct {
		Ingest   loadQuantiles `json:"ingest_ns"`
		CloseLag loadQuantiles `json:"close_lag_ns"`
		Query    loadQuantiles `json:"query_ns"`
	} `json:"loadgen"`
}

// loadgenPkg is the pseudo-package loadgen metrics are filed under; its
// shortPkg rendering prefixes the table rows ("loadgen.Ingest/p50").
const loadgenPkg = "repro/loadgen"

// parseJSONDoc interprets a JSON input: a benchjson File verbatim, or a
// cmd/loadgen artifact converted to pseudo-benchmarks (one sample each,
// ns_per_op = the quantile, runs = the sample count behind it). Zero-valued
// quantiles (no samples) are omitted rather than recorded as 0 ns.
func parseJSONDoc(data []byte) (File, error) {
	var doc loadgenDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return File{}, err
	}
	if doc.Loadgen == nil {
		var f File
		err := json.Unmarshal(data, &f)
		return f, err
	}
	f := File{GOOS: doc.GOOS, GOARCH: doc.GOARCH, CPU: doc.CPU}
	add := func(group string, q loadQuantiles) {
		for _, m := range []struct {
			name string
			ns   float64
		}{{"p50", q.P50}, {"p90", q.P90}, {"p99", q.P99}} {
			if m.ns <= 0 {
				continue
			}
			f.Benchmarks = append(f.Benchmarks, Benchmark{
				Pkg:     loadgenPkg,
				Name:    group + "/" + m.name,
				Samples: []Sample{{Runs: q.Count, NsPerOp: m.ns}},
			})
		}
	}
	add("Ingest", doc.Loadgen.Ingest)
	add("CloseLag", doc.Loadgen.CloseLag)
	add("Query", doc.Loadgen.Query)
	sort.Slice(f.Benchmarks, func(a, b int) bool { return f.Benchmarks[a].Name < f.Benchmarks[b].Name })
	return f, nil
}

// parseInput reads bench text or a JSON document (File or loadgen
// artifact), detected by the leading byte.
func parseInput(r io.Reader) (File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return File{}, err
	}
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '{' {
		return parseJSONDoc(t)
	}
	return parseBench(bytes.NewReader(data))
}

// normalizeName strips the trailing -GOMAXPROCS suffix go test appends
// ("BenchmarkFoo-8" → "BenchmarkFoo", ".../workers=4-8" → ".../workers=4")
// so results keyed on one machine compare against a baseline recorded on a
// machine with a different core count.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// best returns the minimum ns/op across samples, or 0 when empty.
func (b Benchmark) best() float64 {
	best := 0.0
	for _, s := range b.Samples {
		if best == 0 || s.NsPerOp < best {
			best = s.NsPerOp
		}
	}
	return best
}

// markdown renders the before/after table. A nil baseline renders the
// current run only.
func markdown(w io.Writer, cur File, base *File) {
	baseBest := map[string]float64{}
	missing := map[string]bool{} // baseline keys not (yet) seen in this run
	if base != nil {
		for _, b := range base.Benchmarks {
			key := b.Pkg + "\x00" + b.Name
			baseBest[key] = b.best()
			missing[key] = true
		}
	}
	if base != nil {
		// Different hardware makes raw deltas noise, not signal — say so.
		if base.CPU != cur.CPU || base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH {
			fmt.Fprintf(w, "_baseline env: %s/%s, %s — this run: %s/%s, %s (different hardware; compare with care)_\n\n",
				base.GOOS, base.GOARCH, base.CPU, cur.GOOS, cur.GOARCH, cur.CPU)
		}
		fmt.Fprintln(w, "| benchmark | before ns/op | after ns/op | Δ |")
		fmt.Fprintln(w, "|---|---:|---:|---:|")
	} else {
		fmt.Fprintln(w, "| benchmark | ns/op |")
		fmt.Fprintln(w, "|---|---:|")
	}
	for _, b := range cur.Benchmarks {
		name := b.Name
		if short := shortPkg(b.Pkg); short != "" {
			name = short + "." + name
		}
		after := b.best()
		if base == nil {
			fmt.Fprintf(w, "| %s | %s |\n", name, fmtNs(after))
			continue
		}
		key := b.Pkg + "\x00" + b.Name
		delete(missing, key)
		before, had := baseBest[key]
		if !had || before == 0 {
			fmt.Fprintf(w, "| %s | — | %s | new |\n", name, fmtNs(after))
			continue
		}
		delta := (after - before) / before * 100
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% |\n", name, fmtNs(before), fmtNs(after), delta)
	}
	if base == nil {
		return
	}
	// Benchmarks tracked by the baseline but absent from this run are the
	// regression the trajectory exists to catch — surface, don't omit.
	for _, b := range base.Benchmarks {
		if !missing[b.Pkg+"\x00"+b.Name] {
			continue
		}
		name := b.Name
		if short := shortPkg(b.Pkg); short != "" {
			name = short + "." + name
		}
		fmt.Fprintf(w, "| %s | %s | — | removed |\n", name, fmtNs(b.best()))
	}
}

// shortPkg keeps the path under the module root ("" for the root package).
func shortPkg(pkg string) string {
	if i := strings.Index(pkg, "/"); i >= 0 {
		return pkg[i+1:]
	}
	return ""
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// loadBaseline reads the baseline JSON for -md comparisons. A missing file
// is not an error — the first bench run of a repo (or a fresh CI workspace)
// has no committed baseline yet, and the job should still produce a table
// of the current run rather than fail. The returned note explains the
// degraded mode; an unreadable or malformed existing file still fails.
func loadBaseline(path string) (*File, string, error) {
	if path == "" {
		return nil, "", nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Sprintf("_no baseline file at `%s` — this run only_", path), nil
	}
	if err != nil {
		return nil, "", err
	}
	f, err := parseJSONDoc(data)
	if err != nil {
		return nil, "", fmt.Errorf("baseline: %w", err)
	}
	return &f, "", nil
}

func main() {
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	md := flag.Bool("md", false, "emit a markdown table instead of JSON")
	baseline := flag.String("baseline", "", "baseline JSON for the markdown before/after columns")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	cur, err := parseInput(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *md {
		base, note, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if note != "" {
			fmt.Println(note)
			fmt.Println()
		}
		markdown(os.Stdout, cur, base)
		return
	}

	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
