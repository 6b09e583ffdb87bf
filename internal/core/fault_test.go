package core

import (
	"errors"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// Every phase of the pipeline must propagate storage errors instead of
// swallowing them or panicking, no matter when the store starts failing.
func TestStorageFaultsPropagate(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}, {7, 8, 9}}},
	})
	// First find out how many store operations a clean run needs.
	clean := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
	if _, _, err := Mine(clean, DefaultConfig(3, 8, minetest.Eps)); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := clean.Ops()
	if total < 10 {
		t.Fatalf("scenario too small to exercise fault paths: %d ops", total)
	}
	// Fail at a sample of positions across the whole run (every phase).
	for budget := int64(0); budget < total; budget += total/7 + 1 {
		fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
		_, _, err := Mine(fs, DefaultConfig(3, 8, minetest.Eps))
		if !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("budget %d: error = %v, want injected fault", budget, err)
		}
	}
}

// Failing any read of validation — its whole-tick checks run on the pool
// with four workers — fails the run, with no partial result.
func TestFaultDuringValidationPhase(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}}},
	})
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(3, 8, minetest.Eps)
		cfg.Workers = workers
		pre := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
		if _, _, err := MineCandidates(pre, cfg, ConvoyGrouper(cfg.M, cfg.Eps)); err != nil {
			t.Fatal(err)
		}
		clean := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
		if _, _, err := Mine(clean, cfg); err != nil {
			t.Fatal(err)
		}
		if clean.Ops() <= pre.Ops() {
			t.Fatalf("workers=%d: validation read nothing", workers)
		}
		for budget := pre.Ops(); budget < clean.Ops(); budget++ {
			fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
			if got, _, err := Mine(fs, cfg); !errors.Is(err, storetest.ErrInjected) || got != nil {
				t.Fatalf("workers=%d, budget %d: Mine = %v, %v, want injected fault", workers, budget, got, err)
			}
		}
	}
}

// The candidate of minetest.LeavingBridge fails validation, so what it
// shrinks to is validated in turn, from the store. Failing every read after
// phases 1–5 in turn covers each of those second-level reads, and the count
// shows there are some.
func TestFaultDuringSecondLevelValidation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		faultDuringSecondLevelValidation(t, workers)
	}
}

func faultDuringSecondLevelValidation(t *testing.T, workers int) {
	ds, want := minetest.LeavingBridge()
	cfg := DefaultConfig(2, 4, minetest.Eps)
	cfg.Workers = workers
	pre := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
	cands, _, err := MineCandidates(pre, cfg, ConvoyGrouper(cfg.M, cfg.Eps))
	if err != nil {
		t.Fatal(err)
	}
	firstLevel := int64(0) // one Fetch per tick of each candidate
	for _, v := range cands {
		firstLevel += int64(v.Len())
	}
	clean := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
	got, _, err := Mine(clean, cfg)
	if err != nil || !model.ConvoysEqual(got, want) {
		t.Fatalf("Mine = %v, %v, want %v", got, err, want)
	}
	if clean.Ops() <= pre.Ops()+firstLevel {
		t.Fatalf("%d reads, %d before validation, candidates %v: no sub-candidate was re-validated from the store",
			clean.Ops(), pre.Ops(), cands)
	}
	for budget := pre.Ops(); budget < clean.Ops(); budget++ {
		fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
		if got, _, err := Mine(fs, cfg); !errors.Is(err, storetest.ErrInjected) || got != nil {
			t.Fatalf("workers=%d, budget %d: Mine = %v, %v, want injected fault", workers, budget, got, err)
		}
	}
}
