package convoy_test

// End-to-end determinism contract of the parallel mining engine: for the
// same input, Workers: 1 and Workers: N must produce byte-identical
// results through the public API, on every generated benchmark dataset.
// The internal phase-level version of this test lives in
// internal/core/parallel_test.go; this one exercises the full public
// pipeline including validation.

import (
	"testing"

	convoy "repro"
	"repro/internal/experiments"
)

func renderConvoys(cs []convoy.Convoy) string {
	s := ""
	for _, c := range cs {
		s += c.String() + "\n"
	}
	return s
}

func TestMineParallelDeterminism(t *testing.T) {
	for _, spec := range experiments.Datasets() {
		t.Run(spec.Name, func(t *testing.T) {
			ds := spec.Build(experiments.Tiny)
			// Ks[1] (~10% of the timeline) yields convoys on every
			// generated dataset; the mid-sweep k leaves Trucks empty.
			p := convoy.Params{M: spec.M, K: spec.Ks(ds)[1], Eps: spec.Eps}
			seq, err := convoy.MineDataset(ds, p, &convoy.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Convoys) == 0 {
				t.Fatalf("%s: fixture mined no convoys — determinism check vacuous", spec.Name)
			}
			want := renderConvoys(seq.Convoys)
			for _, workers := range []int{2, 8} {
				par, err := convoy.MineDataset(ds, p, &convoy.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := renderConvoys(par.Convoys); got != want {
					t.Fatalf("workers=%d differs from sequential:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
				if par.K2Hop == nil || par.K2Hop.Workers != workers {
					t.Fatalf("workers=%d: report did not record the pool size: %+v", workers, par.K2Hop)
				}
			}
		})
	}
}

func TestMineRejectsNegativeWorkers(t *testing.T) {
	ds := experiments.TrucksSpec().Build(experiments.Tiny)
	_, err := convoy.MineDataset(ds, convoy.Params{M: 3, K: 4, Eps: 40}, &convoy.Options{Workers: -1})
	if err == nil {
		t.Fatal("Workers: -1 should be rejected")
	}
}

func TestMineDefaultWorkersIsPerCore(t *testing.T) {
	ds := experiments.TrucksSpec().Build(experiments.Tiny)
	res, err := convoy.MineDataset(ds, convoy.Params{M: 3, K: 6, Eps: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.K2Hop == nil {
		t.Fatal("no k/2-hop report")
	}
	if res.K2Hop.Workers < 1 {
		t.Fatalf("default workers = %d, want ≥ 1", res.K2Hop.Workers)
	}
}
