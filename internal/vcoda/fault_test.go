package vcoda

import (
	"errors"
	"testing"

	"repro/internal/cmc"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func faultScenario() storage.Store {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 14, Groups: [][]int32{{1, 2, 3}}},
	})
	return storage.NewMemStore(ds)
}

func TestMineStarPropagatesFaults(t *testing.T) {
	for _, budget := range []int64{0, 3, 10} {
		fs := storetest.NewFaultStore(faultScenario(), budget)
		if _, _, err := MineStar(fs, 3, 5, minetest.Eps); !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
}

func TestMinePropagatesFaults(t *testing.T) {
	// Plain VCoDA fetches during validation too; fail there specifically.
	clean := storetest.NewFaultStore(faultScenario(), 1<<40)
	if _, _, err := Mine(clean, 3, 5, minetest.Eps); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, clean.Ops() / 2, clean.Ops() - 1} {
		fs := storetest.NewFaultStore(faultScenario(), budget)
		if _, _, err := Mine(fs, 3, 5, minetest.Eps); !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
}

func TestCMCPropagatesFaults(t *testing.T) {
	fs := storetest.NewFaultStore(faultScenario(), 5)
	if _, err := cmc.Mine(fs, 3, 5, minetest.Eps); !errors.Is(err, storetest.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}

// A store that starts failing inside the re-validation of a sub-candidate,
// which reads its rows from the store like its parent did. The two
// candidates are PCCD's for the scenario; failing every read of the run in
// turn covers each of the second-level ones, and the count shows there are
// some. With four workers the candidates' checks read concurrently, so a
// budget may run out in either; it must fail the call all the same.
func TestValidatePropagatesSecondLevelFaults(t *testing.T) {
	ds, want := minetest.LeavingBridge()
	cands := []model.Convoy{
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 0, 8),
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 19),
	}
	const firstLevel = 9 + 20 // one Fetch per tick of each candidate
	for _, workers := range []int{1, 4} {
		clean := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
		got, err := Validate(clean, cands, 2, 4, minetest.Eps, workers)
		if err != nil || !model.ConvoysEqual(got, want) {
			t.Fatalf("workers=%d: Validate = %v, %v, want %v", workers, got, err, want)
		}
		if clean.Ops() <= firstLevel {
			t.Fatalf("workers=%d: %d reads: no sub-candidate was re-validated from the store", workers, clean.Ops())
		}
		for budget := int64(0); budget < clean.Ops(); budget++ {
			fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
			if got, err := Validate(fs, cands, 2, 4, minetest.Eps, workers); !errors.Is(err, storetest.ErrInjected) || got != nil {
				t.Fatalf("workers=%d, budget %d: Validate = %v, %v", workers, budget, got, err)
			}
		}
	}
}

// The same through plain VCoDA, whose validation reads the store it mined.
func TestMinePropagatesSecondLevelFaults(t *testing.T) {
	ds, want := minetest.LeavingBridge()
	clean := storetest.NewFaultStore(storage.NewMemStore(ds), 1<<40)
	got, rep, err := Mine(clean, 2, 4, minetest.Eps)
	if err != nil || !model.ConvoysEqual(got, want) {
		t.Fatalf("Mine = %v, %v, want %v", got, err, want)
	}
	const sweep, firstLevel = 20, 9 + 20 // snapshots, then as above
	if rep.PreValidation != 2 || clean.Ops() <= sweep+firstLevel {
		t.Fatalf("%d candidates, %d reads: no sub-candidate was re-validated from the store", rep.PreValidation, clean.Ops())
	}
	for budget := int64(sweep); budget < clean.Ops(); budget++ {
		fs := storetest.NewFaultStore(storage.NewMemStore(ds), budget)
		if _, _, err := Mine(fs, 2, 4, minetest.Eps); !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
}
