package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare applies: every
// end-to-end metric's direction and the share of the first side's median
// by which it may get worse.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var sp benchSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json: %w (say where it is with -spec)", lastErr)
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the driver's measure of run-to-run
// spread. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// Verdicts of one (metric, workload) row.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved" // run-to-run spread wider than the bound
)

// classify compares side b with side a on one metric. worse is how much
// b's median is worse than a's as a share of a's median (negative when b is
// better); spread is the larger quartile spread of the two sides.
func classify(m specMetric, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	if ma != 0 {
		worse = (mb - ma) / ma
		if ma < 0 {
			worse = -worse
		}
	}
	if m.Better == "higher" {
		worse = -worse
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > m.Bound:
		return unresolved, worse, spread
	case worse > m.Bound:
		return regressed, worse, spread
	case worse < 0 && -worse > spread:
		return improved, worse, spread
	}
	return withinBound, worse, spread
}

// exactDiffer reports whether a count that must repeat exactly took more
// than one value for some seed across both sides.
func exactDiffer(a, b map[int64][]float64) bool {
	for seed, xs := range a {
		all := append(append([]float64(nil), xs...), b[seed]...)
		for _, x := range all {
			if x != all[0] {
				return true
			}
		}
	}
	return false
}

// compareFiles prints one row per (end-to-end metric, workload) and one per
// exact count, and reports whether side b regressed: a metric worse by
// more than its bound, an exact count that differs, or a higher share of
// failed operations.
func compareFiles(w io.Writer, sp *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, errors.New("a side has no runs")
	}
	return compareRuns(w, sp, a, b), nil
}

func compareRuns(w io.Writer, sp *benchSpec, a, b []runRecord) bool {
	values := func(recs []runRecord, workload string, trace int, metric string) (all []float64, bySeed map[int64][]float64) {
		bySeed = map[int64][]float64{}
		for _, r := range recs {
			if r.Workload != workload || r.Trace != trace {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				all = append(all, v.Value)
				bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
			}
		}
		return all, bySeed
	}
	failedShare := func(recs []runRecord, workload string) (share float64, runs int) {
		var attempted, failed int64
		for _, r := range recs {
			if r.Workload == workload {
				attempted += r.Attempted
				failed += r.Failed
				runs++
			}
		}
		if attempted == 0 {
			return 0, runs
		}
		return float64(failed) / float64(attempted), runs
	}

	bad := false
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %9s %8s  %s\n", "workload", "metric", "median a", "median b", "worse by", "spread", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, _ := values(a, wl.Name, 0, m.Name)
			vb, _ := values(b, wl.Name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse, spread := classify(m, va, vb)
			bad = bad || verdict == regressed
			fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %+8.1f%% %7.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*spread, verdict, 100*m.Bound, len(va), len(vb))
		}
		for _, m := range sp.PerLayer {
			if !isExact(m.Name) {
				continue
			}
			va, sa := values(a, wl.Name, 1, m.Name)
			vb, sb := values(b, wl.Name, 1, m.Name)
			if len(va) == 0 || len(vb) == 0 || (slices.Max(va) == 0 && slices.Max(vb) == 0) {
				continue // not measured, or a layer the workload does not exercise
			}
			verdict := "identical"
			if exactDiffer(sa, sb) || exactDiffer(sb, sa) {
				verdict, bad = "DIFFERS (must repeat exactly for a seed)", true
			}
			fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %9s %8s  %s\n", wl.Name, m.Name, median(va), median(vb), "", "", verdict)
		}
		fa, na := failedShare(a, wl.Name)
		fb, nb := failedShare(b, wl.Name)
		if na > 0 && nb > 0 {
			verdict := "ok"
			if fb > fa {
				verdict, bad = "MORE FAILED OPERATIONS", true
			}
			fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %9s %8s  %s\n", wl.Name, "failed share of operations", fa, fb, "", "", verdict)
		}
	}
	return bad
}
