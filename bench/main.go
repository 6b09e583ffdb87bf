// Command bench is the repository's one benchmark: four workloads over the
// whole system (two mine a stored dataset in-process with k/2-hop, two
// drive a child convoyd over HTTP), each printing every end-to-end metric
// by name and unit after checking that the outputs are correct, and — in a
// separate traced run — per-layer numbers timed from outside each layer's
// public functions. README.md in this directory is the glossary;
// BENCHMARK.json at the root of the repository fixes each metric's
// direction and bound.
//
//	go run . -workload mine-lsmt -seed 1 -seconds 10        (from bench/)
//	go run . -workload serve-ingest -trace 1 -o runs.jsonl
//	go run . -compare a.jsonl b.jsonl
//
// The last line of standard output is the run's result as one JSON object;
// everything a person reads goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// loop says how load is offered, for the header.
	loop string
	run  func(*runCtx) error
}

var workloads = []workload{
	{name: "mine-mem", loop: "closed loop, 1 client (in-process, default Options: one worker per core)", run: runMine},
	{name: "mine-lsmt", loop: "closed loop, 1 client (in-process, default Options: one worker per core)", run: runMine},
	{name: "serve-ingest", loop: "closed loop at saturation, 2 connections", run: runServeIngest},
	{name: "serve-mixed", loop: "open loop on a fixed schedule of 20 bodies/s and 50 queries/s, 1 connection + 1 long-poller", run: runServeMixed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

// runCtx is what a workload gets: its inputs' seed, how long to measure,
// where to put files, and the report to fill in.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sc       scale
	workDir  string // scratch directory of this run, removed at exit
	buildDir string // where the convoyd binary is built
	srcDir   string // the benchmark module's directory, where go build runs
	rep      *report
	tr       *tracer // non-nil in a traced run
	began    time.Time
}

// phase notes on standard error where a run's wall time goes.
func (ctx *runCtx) phase(name string) {
	fmt.Fprintf(os.Stderr, "# %7.2fs %s\n", time.Since(ctx.began).Seconds(), name)
}

// report collects what a run measured.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	samples   map[string]int // how many samples stand behind a metric
	info      map[string]any // sizes and counts worth recording beside the metrics
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string]int{}, info: map[string]any{}}
}

// op counts one operation; a failed one is explained on standard error.
func (r *report) op(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

// fail marks one already-counted operation as failed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
}

func (r *report) set(name string, v float64, samples int) {
	r.metrics[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

// runRecord is one line of an -o file: what -compare reads.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    int            `json:"trace"`
	Scale    string         `json:"scale"`
	Seconds  float64        `json:"seconds"`
	Env      map[string]any `json:"env"`
	Info     map[string]any `json:"info,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"`
	driverResult
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// newRunCtx makes a run's context and its scratch directory under
// buildDir; cleanup removes the scratch directory.
func newRunCtx(workload string, seed int64, seconds time.Duration, traced bool, sc scale, buildDir, srcDir string) (*runCtx, func(), error) {
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, nil, err
	}
	workDir, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, nil, err
	}
	ctx := &runCtx{
		workload: workload, seed: seed, seconds: seconds, traced: traced, sc: sc,
		workDir: workDir, buildDir: abs, srcDir: srcDir, rep: newReport(), began: time.Now(),
	}
	if traced {
		ctx.tr = newTracer()
	}
	return ctx, func() { os.RemoveAll(workDir) }, nil
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
		scaleArg = flag.String("scale", "full", "frozen input sizes: full or smoke")
		out      = flag.String("o", "", "append this run's record (one JSON line) to this file")
		compare  = flag.Bool("compare", false, "compare two -o files given as arguments: bench -compare a.jsonl b.jsonl")
		spec     = flag.String("spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
		buildDir = flag.String("build-dir", ".bench_build", "directory for the convoyd binary and this run's scratch files")
		src      = flag.String("src", ".", "directory of this benchmark's go.mod, from where convoyd is built")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files")
		}
		sp, err := loadSpec(*spec)
		if err != nil {
			return err
		}
		regressed, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if regressed {
			return errors.New("regression (see the rows above)")
		}
		return nil
	}

	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown -workload %q (one of %s)", *name, workloadNames())
	}
	sc, err := scaleByName(*scaleArg)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be > 0 and -trace 0 or 1")
	}
	ctx, cleanup, err := newRunCtx(w.name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, sc, *buildDir, *src)
	if err != nil {
		return err
	}
	defer cleanup()
	env := environment()
	printHeader(ctx, w, env)
	ctx.rep.info["sizes"] = fmt.Sprintf("%+v", sc)
	ctx.rep.info["loop"] = w.loop

	if err := w.run(ctx); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if ctx.tr != nil {
		path := filepath.Join(ctx.buildDir, fmt.Sprintf("spans-%s.csv", w.name))
		if err := ctx.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "# spans: %d written to %s\n", len(ctx.tr.spans), path)
	}

	defs := endToEnd
	if ctx.traced {
		defs = perLayer
	}
	rec := runRecord{
		Workload: w.name, Seed: *seed, Trace: *trace, Scale: sc.Name, Seconds: *seconds,
		Env: env, Info: ctx.rep.info, Samples: ctx.rep.samples,
		driverResult: driverResult{
			Correct: ctx.rep.failed == 0, Attempted: ctx.rep.attempted, Failed: ctx.rep.failed,
			Metrics: map[string]metricValue{},
		},
	}
	for _, d := range defs {
		v, measured := ctx.rep.metrics[d.name]
		if !measured && !ctx.traced {
			return fmt.Errorf("%s did not measure %s", w.name, d.name)
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if !measured {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(os.Stderr, "%-38s %16.6g %-9s", d.name, v, d.unit)
		if n := ctx.rep.samples[d.name]; n > 0 {
			fmt.Fprintf(os.Stderr, " n=%d", n)
		}
		fmt.Fprintln(os.Stderr)
	}
	for name := range ctx.rep.metrics {
		if !listed(name) {
			return fmt.Errorf("%s measured %s, which metrics.go does not list", w.name, name)
		}
	}
	fmt.Fprintf(os.Stderr, "# operations: attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	if rec.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.driverResult)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func appendRecord(path string, rec runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value == "true"
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func printHeader(ctx *runCtx, w workload, env map[string]any) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "# %s: %v\n", k, env[k])
	}
	fmt.Fprintf(os.Stderr, "# workload: %s (%s)\n", w.name, w.loop)
	fmt.Fprintf(os.Stderr, "# seed: %d  scale: %s  measured phase: %s  set-up repeats: %d  traced: %v\n",
		ctx.seed, ctx.sc.Name, ctx.seconds, setupReps, ctx.traced)
	fmt.Fprintf(os.Stderr, "# frozen sizes: %+v\n", ctx.sc)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "# WARNING: GOMAXPROCS %d > nproc %d: workers will share cores\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}
