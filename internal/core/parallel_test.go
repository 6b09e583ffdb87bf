package core

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// mineWith runs the full k/2-hop miner with a fixed worker count and
// returns the canonical string rendering of the result, so tests can
// assert byte-identical output across worker counts.
func mineWith(t *testing.T, ds *model.Dataset, m, k, workers int) string {
	t.Helper()
	s, _ := mineReads(t, ds, m, k, workers)
	return s
}

// mineReads is mineWith that also returns what the run read from its store.
func mineReads(t *testing.T, ds *model.Dataset, m, k, workers int) (string, storage.IOStats) {
	t.Helper()
	cfg := DefaultConfig(m, k, minetest.Eps)
	cfg.Workers = workers
	store := storage.NewMemStore(ds)
	out, rep, err := Mine(store, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if workers > 0 && rep.Workers != workers {
		t.Fatalf("report says %d workers, want %d", rep.Workers, workers)
	}
	s := ""
	for _, c := range out {
		s += c.String() + "\n"
	}
	return s, store.Stats().Snapshot()
}

// parallelCases are random datasets with enough going on that every
// parallel phase carries work.
var parallelCases = []struct {
	name     string
	seed     int64
	nObj, nT int
	m, k     int
}{
	{"small", 1, 20, 60, 3, 8},
	{"medium", 2, 40, 120, 3, 10},
	{"long-k", 3, 30, 200, 2, 24},
	{"dense", 4, 60, 80, 3, 6},
}

// TestParallelDeterminism is the hard requirement of the parallel engine:
// for every worker count the mined convoy set must be byte-identical to
// the sequential (Workers=1) run, on datasets with enough going on that
// all parallel phases (benchmark fan-out, HWMT fan-out, extension fan-out)
// actually carry work.
func TestParallelDeterminism(t *testing.T) {
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := minetest.Random(tc.seed, tc.nObj, tc.nT)
			want := mineWith(t, ds, tc.m, tc.k, 1)
			if want == "" {
				t.Logf("note: no convoys mined for %s (still checks empty equality)", tc.name)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				if got := mineWith(t, ds, tc.m, tc.k, workers); got != want {
					t.Fatalf("workers=%d output differs from sequential:\n--- sequential ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
}

// TestParallelReadsDoNotDependOnWorkers: besides the output, what a run
// reads from its store — point queries and the points they return — is the
// same for every worker count. The first cases have candidates that fail
// validation, so the sweeps re-validate what they shrink to from the store.
func TestParallelReadsDoNotDependOnWorkers(t *testing.T) {
	type tcase struct {
		name  string
		ds    *model.Dataset
		m, k  int
		fails bool // some candidate fails validation
	}
	bridge, _ := minetest.LeavingBridge()
	cases := []tcase{
		{"leaving-bridge", bridge, 2, 4, true},
		{"failing-sparse", minetest.Random(13, 30, 100), 2, 6, true},
		{"failing-dense", minetest.Random(2, 60, 80), 3, 6, true},
		{"failing-long", minetest.Random(10, 40, 120), 3, 10, true},
	}
	for _, tc := range parallelCases {
		cases = append(cases, tcase{tc.name, minetest.Random(tc.seed, tc.nObj, tc.nT), tc.m, tc.k, false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fails && failingCandidates(t, tc.ds, tc.m, tc.k) == 0 {
				t.Fatal("no candidate fails validation")
			}
			want, wantReads := mineReads(t, tc.ds, tc.m, tc.k, 1)
			for _, workers := range []int{2, 4, 8} {
				got, reads := mineReads(t, tc.ds, tc.m, tc.k, workers)
				if got != want {
					t.Fatalf("workers=%d output differs from sequential:\n--- sequential ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
				if reads.PointQueries != wantReads.PointQueries || reads.PointsRead != wantReads.PointsRead {
					t.Fatalf("workers=%d read %+v, sequential read %+v", workers, reads, wantReads)
				}
			}
		})
	}
}

// failingCandidates counts the candidates of phases 1–5 that are not among
// the mined FC convoys: the ones validation sweeps.
func failingCandidates(t *testing.T, ds *model.Dataset, m, k int) int {
	t.Helper()
	cfg := DefaultConfig(m, k, minetest.Eps)
	cands, _, err := MineCandidates(storage.NewMemStore(ds), cfg, ConvoyGrouper(m, minetest.Eps))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := model.NewConvoySet(out...)
	n := 0
	for _, c := range cands {
		if !fc.Contains(c) {
			n++
		}
	}
	return n
}

// TestParallelReportCPUAccounting checks that the parallel phases record
// summed task time: CPU time must be at least a large fraction of wall
// time for a busy phase (they are equal modulo scheduling when workers=1).
func TestParallelReportCPUAccounting(t *testing.T) {
	ds := minetest.Random(5, 40, 120)
	cfg := DefaultConfig(3, 10, minetest.Eps)
	cfg.Workers = 4
	_, rep, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", rep.Workers)
	}
	if rep.BenchmarkTime > 0 && rep.BenchmarkCPU == 0 {
		t.Fatal("benchmark phase ran but recorded no CPU time")
	}
	if rep.HWMTTime > 0 && rep.HWMTCPU == 0 {
		t.Fatal("HWMT phase ran but recorded no CPU time")
	}
	if rep.ExtendRight > 0 && rep.ExtendRightCPU == 0 {
		t.Fatal("extend-right phase ran but recorded no CPU time")
	}
}

// TestParallelAgainstReference cross-validates the parallel run against
// the invariant checkers: everything mined concurrently must really be a
// fully connected convoy of the dataset.
func TestParallelAgainstReference(t *testing.T) {
	ds := minetest.Random(6, 30, 100)
	cfg := DefaultConfig(3, 8, minetest.Eps)
	cfg.Workers = 8
	out, _, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out {
		if !minetest.IsFCConvoy(ds, c, cfg.M, minetest.Eps) {
			t.Fatalf("parallel run mined a non-FC convoy: %v", c)
		}
	}
	if i, j := minetest.AssertMaximal(out); i >= 0 {
		t.Fatalf("result not maximal: %d ⊂ %d", i, j)
	}
}
