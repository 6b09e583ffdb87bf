package convoy

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

// A scenario where the three pattern classes disagree, demonstrating their
// semantics side by side:
//
//   - a chain of 4 objects spaced just under eps: a convoy (density
//     connected), not a flock for small r (diameter too large);
//   - a churning cluster: a moving cluster, neither convoy nor flock.
func patternScenario() *Dataset {
	var pts []Point
	for t := int32(0); t < 12; t++ {
		// The chain, drifting east.
		for i := int32(0); i < 4; i++ {
			pts = append(pts, Point{OID: i, T: t, X: float64(t)*3 + float64(i)*1.2, Y: 0})
		}
		// The churning group around (100, 100): members rotate every 4 ticks.
		stage := t / 4
		for s := int32(0); s < 3; s++ {
			oid := 20 + stage + s // windows {20,21,22},{21,22,23},{22,23,24}
			pts = append(pts, Point{OID: oid, T: t, X: 100 + float64(s)*1.2, Y: 100})
		}
	}
	return NewDataset(pts)
}

func TestPatternSemanticsDiffer(t *testing.T) {
	ds := patternScenario()

	// Convoy: the 4-chain qualifies (density-connected with eps=2.5, which
	// makes the interior points core under minPts=4), full 12 ticks.
	cres, err := MineDataset(ds, Params{M: 4, K: 12, Eps: 2.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Convoys) != 1 || !cres.Convoys[0].Objs.Equal(NewObjSet(0, 1, 2, 3)) {
		t.Fatalf("convoy result: %v", cres.Convoys)
	}

	// Flock with r=1.2: the chain's diameter is 3.6, so no 4-flock exists.
	flocks, err := MineFlocks(NewMemStore(ds), PatternParams{Params: Params{M: 4, K: 12}, R: 1.2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(flocks) != 0 {
		t.Fatalf("no radius-1.2 flock of 4 should exist: %v", flocks)
	}
	// But sub-pairs do fit a disk.
	flocks, err = MineFlocks(NewMemStore(ds), PatternParams{Params: Params{M: 2, K: 12}, R: 1.2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(flocks) == 0 {
		t.Fatalf("pair flocks should exist")
	}

	// Moving cluster: the churning group survives the member rotation.
	mcs, err := MineMovingClusters(NewMemStore(ds), PatternParams{
		Params: Params{M: 3, K: 12, Eps: minetest.Eps}, Theta: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundChurn := false
	for _, mc := range mcs {
		if mc.Len() == 12 && mc.Clusters[0].Contains(20) && !mc.Clusters[11].Contains(20) {
			foundChurn = true
		}
	}
	if !foundChurn {
		t.Fatalf("churning moving cluster not found: %+v", mcs)
	}
	// No convoy of length 12 exists among the churners (object 20 leaves).
	cres, err = MineDataset(ds, Params{M: 3, K: 12, Eps: 2.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cres.Convoys {
		if c.Objs.Contains(20) {
			t.Fatalf("churner should not form a 12-tick convoy: %v", c)
		}
	}
}

// TestMineFlocksSweepMatchesK2Hop: at K = 1, which k/2-hop cannot hop,
// MineFlocks runs the sweep, the way Mine runs VCoDA* there.
func TestMineFlocksSweepMatchesK2Hop(t *testing.T) {
	ds := patternScenario()
	for _, k := range []int{6, 1} {
		p := PatternParams{Params: Params{M: 2, K: k}, R: 1.5}
		fast, err := MineFlocks(NewMemStore(ds), p, false)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		base, err := MineFlocks(NewMemStore(ds), p, true)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if len(base) == 0 || !model.ConvoysEqual(fast, base) {
			t.Fatalf("K=%d: k2hop flocks %v != sweep flocks %v", k, fast, base)
		}
	}
}

// TestBatchMinersShareParamsRule: the batch miners reject exactly what a
// streaming PatternMiner rejects, with the same error, because both apply
// PatternParams' one default-and-validate rule.
func TestBatchMinersShareParamsRule(t *testing.T) {
	ds := patternScenario()
	valid := PatternParams{Params: Params{M: 2, K: 3, Eps: 1.5}, R: 1.5, Theta: 0.5}
	cases := []struct {
		name string
		edit func(*PatternParams)
	}{
		{"R=-1", func(pp *PatternParams) { pp.R = -1 }},
		{"M=0", func(pp *PatternParams) { pp.M = 0 }},
		{"K=0", func(pp *PatternParams) { pp.K = 0 }},
		{"Eps=-1", func(pp *PatternParams) { pp.Eps = -1 }},
		{"Theta=2", func(pp *PatternParams) { pp.Theta = 2 }},
		{"Theta=-0.5", func(pp *PatternParams) { pp.Theta = -0.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pp := valid
			c.edit(&pp)
			_, want := NewPatternMiner(PatternFlock, pp)
			if want == nil {
				t.Fatalf("NewPatternMiner accepted %+v", pp)
			}
			for _, sweep := range []bool{false, true} {
				if _, err := MineFlocks(NewMemStore(ds), pp, sweep); err == nil || err.Error() != want.Error() {
					t.Errorf("MineFlocks(sweep=%v) = %v, want %v", sweep, err, want)
				}
			}
			if _, err := MineMovingClusters(NewMemStore(ds), pp); err == nil || err.Error() != want.Error() {
				t.Errorf("MineMovingClusters = %v, want %v", err, want)
			}
		})
	}
}
