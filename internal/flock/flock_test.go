package flock

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

func pos(oid int32, x, y float64) model.ObjPos { return model.ObjPos{OID: oid, X: x, Y: y} }

// --- SEC (Welzl) ----------------------------------------------------------

// bruteSEC enumerates circles over all pairs and triples, returning the
// smallest one containing every point.
func bruteSEC(pts []model.ObjPos) Circle {
	if len(pts) == 0 {
		return Circle{}
	}
	if len(pts) == 1 {
		return Circle{X: pts[0].X, Y: pts[0].Y}
	}
	best := Circle{R: math.Inf(1)}
	containsAll := func(c Circle) bool {
		for _, p := range pts {
			if !c.Contains(p.X, p.Y) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if c := circleFrom2(pts[i], pts[j]); c.R < best.R && containsAll(c) {
				best = c
			}
			for k := j + 1; k < len(pts); k++ {
				if c := circleFrom3(pts[i], pts[j], pts[k]); c.R < best.R && containsAll(c) {
					best = c
				}
			}
		}
	}
	return best
}

func TestSECSimpleShapes(t *testing.T) {
	// Two points: circle over the diameter.
	c := SEC([]model.ObjPos{pos(1, 0, 0), pos(2, 2, 0)})
	if math.Abs(c.R-1) > 1e-9 || math.Abs(c.X-1) > 1e-9 {
		t.Fatalf("two-point SEC = %+v", c)
	}
	// Equilateral-ish triangle: circumcircle.
	c = SEC([]model.ObjPos{pos(1, 0, 0), pos(2, 2, 0), pos(3, 1, 2)})
	for _, p := range []model.ObjPos{pos(1, 0, 0), pos(2, 2, 0), pos(3, 1, 2)} {
		if !c.Contains(p.X, p.Y) {
			t.Fatalf("SEC %+v misses %v", c, p)
		}
	}
	// Single point: zero radius.
	c = SEC([]model.ObjPos{pos(1, 5, 7)})
	if c.R != 0 || c.X != 5 || c.Y != 7 {
		t.Fatalf("single-point SEC = %+v", c)
	}
	// Empty: zero circle.
	if SEC(nil) != (Circle{}) {
		t.Fatalf("empty SEC should be zero")
	}
}

func TestSECMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(12) + 2
		pts := make([]model.ObjPos, n)
		for i := range pts {
			pts[i] = pos(int32(i), rng.Float64()*10, rng.Float64()*10)
		}
		got := SEC(pts)
		want := bruteSEC(pts)
		for _, p := range pts {
			if !got.Contains(p.X, p.Y) {
				t.Fatalf("trial %d: SEC %+v misses %v", trial, got, p)
			}
		}
		if got.R > want.R*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: SEC radius %f > optimal %f", trial, got.R, want.R)
		}
	}
}

func TestSECCollinear(t *testing.T) {
	pts := []model.ObjPos{pos(1, 0, 0), pos(2, 1, 0), pos(3, 2, 0), pos(4, 3, 0)}
	c := SEC(pts)
	if math.Abs(c.R-1.5) > 1e-9 {
		t.Fatalf("collinear SEC radius = %f, want 1.5", c.R)
	}
}

func TestSECDuplicatePoints(t *testing.T) {
	pts := []model.ObjPos{pos(1, 1, 1), pos(2, 1, 1), pos(3, 1, 1)}
	c := SEC(pts)
	if c.R > 1e-9 {
		t.Fatalf("duplicate-point SEC radius = %f", c.R)
	}
}

func TestFitsDisk(t *testing.T) {
	pts := []model.ObjPos{pos(1, 0, 0), pos(2, 2, 0)}
	if !FitsDisk(pts, 1.0) {
		t.Fatalf("diameter-2 pair should fit radius 1")
	}
	if FitsDisk(pts, 0.9) {
		t.Fatalf("diameter-2 pair should not fit radius 0.9")
	}
	if !FitsDisk(nil, 0) {
		t.Fatalf("empty set fits any disk")
	}
}

// --- DiskGroups -------------------------------------------------------------

func TestDiskGroupsBasic(t *testing.T) {
	rows := []model.ObjPos{
		pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1.0, 0), // tight trio
		pos(9, 100, 100), // loner
	}
	groups := DiskGroups(rows, 0.6, 2)
	found := false
	for _, g := range groups {
		if g.Equal(model.NewObjSet(1, 2, 3)) {
			found = true
		}
		if g.Contains(9) && len(g) > 1 {
			t.Fatalf("loner grouped: %v", g)
		}
		// Every returned group must actually fit a disk of radius 0.6.
		var member []model.ObjPos
		for _, r := range rows {
			if g.Contains(r.OID) {
				member = append(member, r)
			}
		}
		if !FitsDisk(member, 0.6) {
			t.Fatalf("group %v does not fit the disk", g)
		}
	}
	if !found {
		t.Fatalf("trio not found: %v", groups)
	}
}

// Completeness: any subset that fits a radius-r disk must be contained in
// some returned group.
func TestDiskGroupsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(10) + 3
		rows := make([]model.ObjPos, n)
		for i := range rows {
			rows[i] = pos(int32(i), rng.Float64()*4, rng.Float64()*4)
		}
		r := 0.5 + rng.Float64()
		groups := DiskGroups(rows, r, 2)
		// Enumerate pairs and triples.
		covered := func(set []model.ObjPos) bool {
			ids := make([]int32, len(set))
			for i, p := range set {
				ids[i] = p.OID
			}
			want := model.NewObjSet(ids...)
			for _, g := range groups {
				if want.SubsetOf(g) {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pair := []model.ObjPos{rows[i], rows[j]}
				if FitsDisk(pair, r) && !covered(pair) {
					t.Fatalf("trial %d: pair %v fits but uncovered", trial, pair)
				}
				for k := j + 1; k < n; k++ {
					tri := []model.ObjPos{rows[i], rows[j], rows[k]}
					if FitsDisk(tri, r) && !covered(tri) {
						t.Fatalf("trial %d: triple fits but uncovered", trial)
					}
				}
			}
		}
	}
}

func TestDiskGroupsMaximalOnly(t *testing.T) {
	rows := []model.ObjPos{pos(1, 0, 0), pos(2, 0.2, 0), pos(3, 0.4, 0)}
	groups := DiskGroups(rows, 1, 2)
	for i := range groups {
		for j := range groups {
			if i != j && groups[i].SubsetOf(groups[j]) {
				t.Fatalf("subset group survived: %v ⊆ %v", groups[i], groups[j])
			}
		}
	}
}

// --- miners -----------------------------------------------------------------

// flockScenario: objects 1..3 fly in formation (diameter < 2) ticks 0..14;
// object 4 joins only ticks 5..9; group 10,11 far away, together throughout.
func flockScenario() *model.Dataset {
	var pts []model.Point
	for t := int32(0); t < 15; t++ {
		base := float64(t) * 5
		pts = append(pts,
			model.Point{OID: 1, T: t, X: base, Y: 0},
			model.Point{OID: 2, T: t, X: base + 0.8, Y: 0.3},
			model.Point{OID: 3, T: t, X: base + 0.4, Y: 0.8},
		)
		x4 := base + 0.6
		if t < 5 || t > 9 {
			x4 += 50
		}
		pts = append(pts, model.Point{OID: 4, T: t, X: x4, Y: 0.1})
		pts = append(pts,
			model.Point{OID: 10, T: t, X: 1000, Y: float64(t)},
			model.Point{OID: 11, T: t, X: 1000.5, Y: float64(t) + 0.5},
		)
	}
	return model.NewDataset(pts)
}

func TestSweepFindsFlocks(t *testing.T) {
	ds := flockScenario()
	got, err := Sweep(storage.NewMemStore(ds), Config{M: 2, K: 5, R: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var cover model.Cover
	for _, f := range got {
		cover.Add(f)
	}
	for _, want := range []Flock{
		model.NewConvoy(model.NewObjSet(1, 2, 3), 0, 14),
		model.NewConvoy(model.NewObjSet(1, 2, 3, 4), 5, 9),
		model.NewConvoy(model.NewObjSet(10, 11), 0, 14),
	} {
		if !cover.Covers(want) {
			t.Fatalf("missing flock %v in %v", want, got)
		}
	}
}

func TestK2HopMatchesSweep(t *testing.T) {
	ds := flockScenario()
	ms := storage.NewMemStore(ds)
	for _, cfg := range []Config{
		{M: 2, K: 5, R: 1.0},
		{M: 3, K: 4, R: 1.0},
		{M: 2, K: 10, R: 1.0},
		{M: 2, K: 5, R: 0.5},
	} {
		want, err := Sweep(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MineK2Hop(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want) {
			t.Fatalf("cfg %+v:\n got %v\nwant %v", cfg, got, want)
		}
	}
}

func TestK2HopMatchesSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		// Random walkers, some paired.
		var pts []model.Point
		n := 8
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.Float64()*30, rng.Float64()*30
		}
		for t := int32(0); t < 16; t++ {
			for i := 0; i < n; i++ {
				if i%2 == 1 && rng.Float64() < 0.8 {
					// Follow the previous object closely.
					x[i], y[i] = x[i-1]+rng.Float64()*0.5, y[i-1]+rng.Float64()*0.5
				} else {
					x[i] += rng.Float64()*4 - 2
					y[i] += rng.Float64()*4 - 2
				}
				pts = append(pts, model.Point{OID: int32(i), T: t, X: x[i], Y: y[i]})
			}
		}
		ds := model.NewDataset(pts)
		ms := storage.NewMemStore(ds)
		cfg := Config{M: 2, K: 4, R: 1.2}
		want, err := Sweep(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MineK2Hop(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestFlockVsConvoySemantics(t *testing.T) {
	// A chain of 5 objects spaced 1.0 apart: density-connected with eps=1.2
	// (a convoy), but the chain's diameter is 4 so it fits no radius-1 disk
	// as a whole — flocks with r=1 must be sub-groups.
	var pts []model.Point
	for t := int32(0); t < 10; t++ {
		for i := int32(0); i < 5; i++ {
			pts = append(pts, model.Point{OID: i, T: t, X: float64(i), Y: 0})
		}
	}
	ds := model.NewDataset(pts)
	got, err := Sweep(storage.NewMemStore(ds), Config{M: 5, K: 5, R: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("chain should not be a radius-1 flock of all 5: %v", got)
	}
	got, err = Sweep(storage.NewMemStore(ds), Config{M: 3, K: 5, R: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Any 3 consecutive chain members span diameter 2 = one radius-1 disk.
	if len(got) == 0 {
		t.Fatalf("3-member windows should be flocks")
	}
	for _, f := range got {
		if f.Size() > 3 {
			t.Fatalf("flock %v exceeds disk capacity", f)
		}
	}
}

func TestEmptyAndShortInputs(t *testing.T) {
	ms := storage.NewMemStore(model.NewDataset(nil))
	if got, err := Sweep(ms, Config{M: 2, K: 3, R: 1}); err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v %v", got, err)
	}
	if got, _, err := MineK2Hop(ms, Config{M: 2, K: 3, R: 1}); err != nil || len(got) != 0 {
		t.Fatalf("empty k2hop: %v %v", got, err)
	}
	if _, _, err := MineK2Hop(ms, Config{M: 2, K: 1, R: 1}); err == nil {
		t.Fatalf("K=1 should be rejected by the pipeline")
	}
}
