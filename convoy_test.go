package convoy

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

func scenario() *Dataset {
	return minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}, {7, 8}}},
	})
}

func TestMineDefaultsToK2Hop(t *testing.T) {
	res, err := MineDataset(scenario(), Params{M: 3, K: 8, Eps: minetest.Eps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != K2Hop || res.K2Hop == nil {
		t.Fatalf("default algorithm should be k2hop: %+v", res)
	}
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2, 3), 0, 19)}
	if !model.ConvoysEqual(res.Convoys, want) {
		t.Fatalf("convoys = %v", res.Convoys)
	}
	if res.PointsProcessed <= 0 || res.Duration <= 0 {
		t.Fatalf("metadata missing: %+v", res)
	}
}

func TestAllAlgorithmsAgreeOnFCScenario(t *testing.T) {
	// On a scenario with no partial-connectivity subtleties, every
	// algorithm (FC and partial miners alike) must find the same convoys.
	ds := scenario()
	p := Params{M: 3, K: 8, Eps: minetest.Eps}
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2, 3), 0, 19)}
	for _, algo := range []Algorithm{K2Hop, VCoDA, VCoDAStar, PCCD, CuTS, DCM, SPARE} {
		res, err := MineDataset(ds, p, &Options{Algorithm: algo, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !model.ConvoysEqual(res.Convoys, want) {
			t.Fatalf("%s: convoys = %v, want %v", algo, res.Convoys, want)
		}
	}
}

func TestK1FallsBackToFullSweep(t *testing.T) {
	res, err := MineDataset(scenario(), Params{M: 2, K: 1, Eps: minetest.Eps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both groups qualify at K=1.
	if len(res.Convoys) != 2 {
		t.Fatalf("K=1 convoys = %v", res.Convoys)
	}
}

func TestParamValidation(t *testing.T) {
	ds := scenario()
	if _, err := MineDataset(ds, Params{M: 0, K: 5, Eps: 1}, nil); err == nil {
		t.Fatalf("M=0 should fail")
	}
	if _, err := MineDataset(ds, Params{M: 2, K: 0, Eps: 1}, nil); err == nil {
		t.Fatalf("K=0 should fail")
	}
	if _, err := MineDataset(ds, Params{M: 2, K: 5, Eps: -1}, nil); err == nil {
		t.Fatalf("negative Eps should fail")
	}
	if _, err := MineDataset(ds, Params{M: 2, K: 5, Eps: 1}, &Options{Algorithm: "nope"}); err == nil {
		t.Fatalf("unknown algorithm should fail")
	}
}

func TestMultiNodeOptionsWork(t *testing.T) {
	ds := scenario()
	p := Params{M: 3, K: 8, Eps: minetest.Eps}
	for _, algo := range []Algorithm{DCM, SPARE} {
		res, err := MineDataset(ds, p, &Options{Algorithm: algo, Workers: 2, Nodes: 2})
		if err != nil {
			t.Fatalf("%s nodes=2: %v", algo, err)
		}
		if len(res.Convoys) != 1 {
			t.Fatalf("%s nodes=2: %v", algo, res.Convoys)
		}
	}
}
