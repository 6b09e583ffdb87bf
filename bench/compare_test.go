package main

import (
	"math"
	"strings"
	"testing"
)

func TestClassifyDirections(t *testing.T) {
	seconds := specMetric{Name: "setup_s", Better: "lower", Bound: 0.10}
	rate := specMetric{Name: "points_per_s", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	cases := []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"seconds up is bad", seconds, steady(10), steady(12), regressed},
		{"seconds down is good", seconds, steady(10), steady(8), improved},
		{"seconds within bound", seconds, steady(10), steady(10.5), withinBound},
		{"throughput up is good", rate, steady(1000), steady(1200), improved},
		{"throughput down is bad", rate, steady(1000), steady(800), regressed},
		{"throughput within bound", rate, steady(1000), steady(950), withinBound},
		{"spread wider than the bound", seconds, []float64{8, 9, 10, 11, 12, 13}, steady(13), unresolved},
		{"one run a side", rate, []float64{1000}, []float64{700}, regressed},
	}
	for _, c := range cases {
		got, worse, spread := classify(c.m, c.a, c.b)
		if got != c.want {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, got, worse, spread, c.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4), which
// is what the driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	// statistics.quantiles(xs, n=4) == [1.75, 3.5, 5.25]; median 3.5.
	if got, want := quartileSpread(xs), (5.25-1.75)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one value has spread %v", got)
	}
}

func record(workload string, seed int64, trace int, failed int64, metrics map[string]float64) runRecord {
	r := runRecord{Workload: workload, Seed: seed, Trace: trace}
	r.Attempted, r.Failed, r.Metrics = 100, failed, map[string]metricValue{}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareRuns(t *testing.T) {
	sp := &benchSpec{
		EndToEnd: []specMetric{{Name: "points_per_s", Better: "higher", Bound: 0.10}},
		PerLayer: []specMetric{{Name: "core.convoys", Better: "higher"}, {Name: "core.self_s", Better: "lower"}},
	}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"mine-mem"})
	base := []runRecord{
		record("mine-mem", 1, 0, 0, map[string]float64{"points_per_s": 1000}),
		record("mine-mem", 1, 1, 0, map[string]float64{"core.convoys": 42, "core.self_s": 1.0}),
	}
	var out strings.Builder
	if compareRuns(&out, sp, base, base) {
		t.Errorf("a run compared with itself regressed:\n%s", out.String())
	}
	// A timing may differ; an exact count may not.
	drift := []runRecord{base[0], record("mine-mem", 1, 1, 0, map[string]float64{"core.convoys": 43, "core.self_s": 1.3})}
	out.Reset()
	if !compareRuns(&out, sp, base, drift) || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("a differing exact count passed:\n%s", out.String())
	}
	// The same count under another seed is not a difference.
	other := []runRecord{base[0], base[1], record("mine-mem", 2, 1, 0, map[string]float64{"core.convoys": 57})}
	out.Reset()
	if compareRuns(&out, sp, base, other) {
		t.Errorf("another seed's count was held against seed 1:\n%s", out.String())
	}
	failing := []runRecord{record("mine-mem", 1, 0, 3, map[string]float64{"points_per_s": 1000})}
	out.Reset()
	if !compareRuns(&out, sp, base, failing) || !strings.Contains(out.String(), "MORE FAILED") {
		t.Errorf("a higher failed share passed:\n%s", out.String())
	}
	slower := []runRecord{record("mine-mem", 1, 0, 0, map[string]float64{"points_per_s": 850})}
	out.Reset()
	if !compareRuns(&out, sp, base, slower) || !strings.Contains(out.String(), regressed) {
		t.Errorf("a 15%% throughput loss passed a 10%% bound:\n%s", out.String())
	}
}
