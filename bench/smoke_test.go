package main

import (
	"testing"
	"time"
)

// TestMetricsMatchSpec keeps metrics.go and BENCHMARK.json in step: same
// names, same units, same order, the four workloads, and a bound no wider
// than the contract allows.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Fatalf("%s: metrics.go lists %d metrics, BENCHMARK.json %d", kind, len(defs), len(spec))
		}
		for i, d := range defs {
			m := spec[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: metrics.go has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", endToEnd, sp.EndToEnd)
	check("per_layer", perLayer, sp.PerLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, sp.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke scale: the
// benchmark builds, its correctness gates pass, and each run measures
// every metric it must print.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns convoyd")
	}
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	buildDir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cleanup, err := newRunCtx(w.name, 1, time.Second, traced, sc, buildDir, ".")
				if err != nil {
					t.Fatal(err)
				}
				defer cleanup()
				if err := w.run(ctx); err != nil {
					t.Fatal(err)
				}
				if ctx.rep.failed != 0 || ctx.rep.attempted == 0 {
					t.Errorf("attempted %d, failed %d", ctx.rep.attempted, ctx.rep.failed)
				}
				if !traced {
					for _, d := range endToEnd {
						if v, ok := ctx.rep.metrics[d.name]; !ok || v <= 0 {
							t.Errorf("%s = %v (measured: %v)", d.name, v, ok)
						}
					}
					return
				}
				for name := range ctx.rep.metrics {
					if !listed(name) {
						t.Errorf("measured %s, which metrics.go does not list", name)
					}
				}
				if tot, self := ctx.rep.metrics["core.sweep_w1_s"], ctx.rep.metrics["core.self_s"]+
					ctx.rep.metrics["store.snapshot_s"]+ctx.rep.metrics["store.fetch_s"]; tot > 0 && (self < 0.98*tot || self > 1.02*tot) {
					t.Errorf("core.self_s + store spans = %v, core.sweep_w1_s = %v", self, tot)
				}
			})
		}
	}
}
