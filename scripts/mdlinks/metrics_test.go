package main

import (
	"encoding/json"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repository's docs quote benchmark metrics by name, in backticks
// (`core.validate_ms`, `dbscan.inc_step_us.parked`). This test keeps those
// names true to BENCHMARK.json, which it only reads.
const repoRoot = "../.."

var (
	fenceRe    = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	// metricRe is a lowercase dotted name; * stands for a family member.
	metricRe = regexp.MustCompile(`^([a-z][a-z0-9_]*)(\.[a-z0-9_*]+)+$`)
)

// fileExts are the last segments that make a dotted span a file name
// (`server.go`), not a metric.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "yml": true, "sst": true, "log": true, "k2cl": true, "k2f": true}

// knownMetric reports whether name is a metric of names, a dotted prefix
// of one (a family such as `dbscan.inc_step_us`), or a pattern whose *
// segments match one.
func knownMetric(name string, names []string) bool {
	for _, n := range names {
		if n == name || strings.HasPrefix(n, name+".") {
			return true
		}
		if ok, _ := path.Match(strings.ReplaceAll(name, ".", "/"), strings.ReplaceAll(n, ".", "/")); ok {
			return true
		}
	}
	return false
}

// unknownMetrics returns the backticked metric names in text whose layer
// prefix is one of layers but which names does not carry.
func unknownMetrics(text string, layers map[string]bool, names []string) []string {
	var bad []string
	for _, m := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(text, ""), -1) {
		span := m[1]
		sm := metricRe.FindStringSubmatch(span)
		if sm == nil || !layers[sm[1]] {
			continue
		}
		if segs := strings.Split(span, "."); len(segs) == 2 && fileExts[segs[1]] {
			continue
		}
		if !knownMetric(span, names) {
			bad = append(bad, span)
		}
	}
	return bad
}

func TestUnknownMetrics(t *testing.T) {
	names := []string{"core.validate_ms", "dbscan.inc_step_us.moving", "dbscan.inc_step_us.parked"}
	layers := map[string]bool{"core": true, "dbscan": true}
	text := "`core.validate_ms` `dbscan.inc_step_us` `dbscan.inc_step_us.*` `server.go` `core.go` " +
		"`core.Mine` `memory.live_feeds` `go test ./...` `core.validate_s` `dbscan.bloom.*`\n" +
		"```\n`core.fenced_ms`\n```\n"
	got := strings.Join(unknownMetrics(text, layers, names), " ")
	if want := "core.validate_s dbscan.bloom.*"; got != want {
		t.Fatalf("unknown metrics %q, want %q", got, want)
	}
}

// TestDocsNameBenchmarkMetrics fails when README.md or docs/*.md names, in
// backticks, a lowercase dotted metric under one of BENCHMARK.json's layer
// prefixes that BENCHMARK.json does not list.
func TestDocsNameBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	layers := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		names = append(names, m.Name)
		if layer, _, ok := strings.Cut(m.Name, "."); ok {
			layers[layer] = true
		}
	}
	if len(layers) == 0 {
		t.Fatal("BENCHMARK.json lists no layered metric; did its format change?")
	}
	docs, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{filepath.Join(repoRoot, "README.md")}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range unknownMetrics(string(text), layers, names) {
			t.Errorf("%s names `%s`, which BENCHMARK.json does not list", filepath.Base(doc), name)
		}
	}
}
