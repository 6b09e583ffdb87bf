package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
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

// declaredTests lists, per directory relative to the repository root ("."
// for the root itself), the functions its _test.go files declare outside a
// method: every Test, Fuzz, Benchmark and Example, helpers included.
func declaredTests(t *testing.T) map[string]map[string]bool {
	t.Helper()
	declared := map[string]map[string]bool{}
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
		dir, _ := filepath.Rel(repoRoot, filepath.Dir(path))
		if dir = filepath.ToSlash(dir); declared[dir] == nil {
			declared[dir] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[dir][fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["scripts/mdlinks"]["TestDocsNameExistingTests"] {
		t.Fatalf("walked the _test.go files from %s without finding this test; did the layout change?", repoRoot)
	}
	return declared
}

// TestDocsNameExistingTests fails when README.md, docs/*.md or the verify
// skill names, in backticks, a Test, Fuzz, Benchmark or Example function
// that no _test.go file of the repository declares — a test renamed or
// deleted without its docs.
func TestDocsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	for _, names := range declaredTests(t) {
		maps.Copy(declared, names)
	}
	docs, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, filepath.Join(repoRoot, "README.md"), filepath.Join(repoRoot, ".claude", "skills", "verify", "SKILL.md"))
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range unknownTestNames(string(text), declared) {
			t.Errorf("%s names `%s`, which no _test.go file declares", filepath.Base(doc), name)
		}
	}
}

// A go test command on one line of a CI step: its -run pattern, its -fuzz
// target and the packages it names.
var (
	ciRunRe  = regexp.MustCompile(`\bgo test .*-run[= ]'?([^' ]*)`)
	ciFuzzRe = regexp.MustCompile(`\bgo test .*-fuzz=(\w+)`)
	ciPkgRe  = regexp.MustCompile(` (\.(?:/[\w./]*)?)`)
)

// unknownCITests returns, as -run=ALT or -fuzz=TARGET, each -run
// alternative and -fuzz target of ci's go test commands that selects no
// Test, Example or Fuzz function (no Fuzz function, for -fuzz) of the
// packages the command names: `go test -fuzz=Gone` and a -run that
// selects nothing both pass, running nothing. Comment lines are skipped,
// -run '^$' is the deliberate "no tests", and ./... names every package.
func unknownCITests(ci string, declared map[string]map[string]bool) []string {
	var bad []string
	for _, line := range strings.Split(ci, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || !strings.Contains(line, "go test ") {
			continue
		}
		var names []string
		for _, pkg := range ciPkgRe.FindAllStringSubmatch(line, -1) {
			for dir, fns := range declared {
				if pkg[1] == "./..." || dir == path.Clean(pkg[1]) {
					names = slices.AppendSeq(names, maps.Keys(fns))
				}
			}
		}
		selects := func(expr string, prefixes ...string) bool {
			re, err := regexp.Compile(expr)
			return err == nil && slices.ContainsFunc(names, func(name string) bool {
				return re.MatchString(name) && slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
			})
		}
		// Only the top level of a -run names functions; subtests follow a /.
		if m := ciRunRe.FindStringSubmatch(line); m != nil && m[1] != "^$" {
			run, _, _ := strings.Cut(m[1], "/")
			for _, alt := range strings.Split(run, "|") {
				if !selects(alt, "Test", "Example", "Fuzz") {
					bad = append(bad, "-run="+alt)
				}
			}
		}
		if m := ciFuzzRe.FindStringSubmatch(line); m != nil && !selects(m[1], "Fuzz") {
			bad = append(bad, "-fuzz="+m[1])
		}
	}
	return bad
}

func TestUnknownCITests(t *testing.T) {
	declared := map[string]map[string]bool{
		".":          {"FuzzRoot": true, "TestRoot": true},
		"internal/a": {"TestKeptA": true, "FuzzA": true, "helper": true},
	}
	ci := "run: go test -run 'Kept|Gone' ./internal/a\n" +
		"  go test -run='^$' -fuzz=FuzzGone -fuzztime=20s ./internal/a\n" +
		"  go test -run='^$' -fuzz=FuzzRoot .\n" +
		"  go test -run 'Root/sub' ./internal/a\n" +
		"  # go test -run Commented ./...\n" +
		"  cd sub && go test -run 'helper|KeptA|Root' ./...\n"
	got := strings.Join(unknownCITests(ci, declared), " ")
	if want := "-run=Gone -fuzz=FuzzGone -run=Root -run=helper"; got != want {
		t.Fatalf("unknown CI tests %q, want %q", got, want)
	}
}

// TestCINamesExistingTests fails when a go test command in the CI workflow
// runs a -run alternative or a -fuzz target that selects no test of the
// packages it names — a test retired without its CI step.
func TestCINamesExistingTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range unknownCITests(string(ci), declaredTests(t)) {
		t.Errorf("ci.yml runs go test %s, which selects no test of the packages it names", bad)
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
