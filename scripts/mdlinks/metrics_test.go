package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
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

// testNameRe is a test, fuzz target, benchmark or example as the docs quote
// it, optionally followed by a subtest path (`BenchmarkMinerStep/moving`).
var testNameRe = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*)(?:/\S*)?$`)

// unknownTestNames returns the backticked test names in text that declared
// does not hold.
func unknownTestNames(text string, declared map[string]bool) []string {
	var bad []string
	for _, m := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(text, ""), -1) {
		if sm := testNameRe.FindStringSubmatch(m[1]); sm != nil && !declared[sm[1]] {
			bad = append(bad, m[1])
		}
	}
	return bad
}

func TestUnknownTestNames(t *testing.T) {
	declared := map[string]bool{"TestFoo": true, "BenchmarkBar": true, "ExampleServer_query": true}
	text := "`TestFoo` `BenchmarkBar/moving` `ExampleServer_query` `TestGone` `FuzzGone/seed` " +
		"`go test -run TestGone` `Testing` `Example`\n```\n`TestFenced`\n```\n"
	got := strings.Join(unknownTestNames(text, declared), " ")
	if want := "TestGone FuzzGone/seed"; got != want {
		t.Fatalf("unknown test names %q, want %q", got, want)
	}
}

// TestDocsNameExistingTests fails when README.md or docs/*.md names, in
// backticks, a Test, Fuzz, Benchmark or Example function that no _test.go
// file of the repository declares — a test renamed or deleted without its
// docs.
func TestDocsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["TestDocsNameExistingTests"] {
		t.Fatalf("walked the _test.go files from %s without finding this test; did the layout change?", repoRoot)
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
		for _, name := range unknownTestNames(string(text), declared) {
			t.Errorf("%s names `%s`, which no _test.go file declares", filepath.Base(doc), name)
		}
	}
}

// flagRe is a command-line flag as the docs quote it: `-persist-every`,
// `-window W`, `-ingest-rate=50`.
var flagRe = regexp.MustCompile(`^-[a-zA-Z][a-zA-Z0-9-]*$`)

// toolFlags are the go and curl flags the docs quote beside the
// repository's own commands.
var toolFlags = map[string]bool{"-race": true, "-benchtime": true, "-fuzz": true, "-d": true}

// unknownFlags returns the flag tokens of text's code spans that defined
// does not hold and toolFlags does not allow.
func unknownFlags(text string, defined map[string]bool) []string {
	var bad []string
	for _, m := range codeSpanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(text, ""), -1) {
		for _, word := range strings.Fields(m[1]) {
			name, _, _ := strings.Cut(word, "=")
			if flagRe.MatchString(name) && !defined[name] && !toolFlags[name] {
				bad = append(bad, name)
			}
		}
	}
	return bad
}

func TestUnknownFlags(t *testing.T) {
	defined := map[string]bool{"-persist": true, "-persist-every": true, "-window": true}
	text := "`-persist` `-persist-every 100ms -gone 3` `-window=2` `go test -race ./...` " +
		"`-1` `--workload` `-stale`\n```\n`-fenced`\n```\n"
	got := strings.Join(unknownFlags(text, defined), " ")
	if want := "-gone -stale"; got != want {
		t.Fatalf("unknown flags %q, want %q", got, want)
	}
}

// flagFuncs are the flag package's defining functions and FlagSet methods;
// the flag name is the first string literal among their arguments.
var flagFuncs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// TestDocsNameExistingFlags fails when README.md or docs/*.md quotes, in
// backticks, a -flag that no cmd/*/main.go defines — a flag deleted or
// renamed without the prose that mentions it. README's flag tables have
// their own two-way checks; this one covers every other mention.
func TestDocsNameExistingFlags(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join(repoRoot, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	fset := token.NewFileSet()
	for _, main := range mains {
		f, err := parser.ParseFile(fset, main, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagFuncs[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						defined["-"+name] = true
					}
					break
				}
			}
			return true
		})
	}
	if !defined["-persist-every"] {
		t.Fatalf("found no -persist-every among the flags of %d cmd/*/main.go files; did the layout change?", len(mains))
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
		for _, name := range unknownFlags(string(text), defined) {
			t.Errorf("%s names `%s`, which no cmd/*/main.go defines", filepath.Base(doc), name)
		}
	}
}
