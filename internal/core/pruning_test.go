package core

import (
	"math/rand"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// random2D builds a 2-D dataset (the minetest scenarios are 1-D lines):
// clustered walkers in the plane plus uniform noise.
func random2D(seed int64, nObj, nTicks int) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	type walker struct {
		x, y  float64
		group int
		slot  int
	}
	nGroups := nObj/5 + 1
	gx := make([]float64, nGroups)
	gy := make([]float64, nGroups)
	for g := range gx {
		gx[g], gy[g] = rng.Float64()*500, rng.Float64()*500
	}
	ws := make([]walker, nObj)
	for i := range ws {
		ws[i] = walker{group: rng.Intn(nGroups+1) - 1, slot: i % 5}
		ws[i].x, ws[i].y = rng.Float64()*500, rng.Float64()*500
	}
	var pts []model.Point
	for t := 0; t < nTicks; t++ {
		for g := range gx {
			gx[g] += rng.Float64()*4 - 2
			gy[g] += rng.Float64()*4 - 2
		}
		for i, w := range ws {
			var x, y float64
			if w.group >= 0 && rng.Float64() < 0.9 {
				// Cluster members sit on a small ring around the centre.
				x = gx[w.group] + float64(w.slot)*0.9
				y = gy[w.group] + float64(w.slot%2)*0.9
			} else {
				x, y = rng.Float64()*500, rng.Float64()*500
			}
			pts = append(pts, model.Point{OID: int32(i), T: int32(t), X: x, Y: y})
		}
		if rng.Float64() < 0.15 {
			i := rng.Intn(nObj)
			ws[i].group = rng.Intn(nGroups+1) - 1
		}
	}
	return model.NewDataset(pts)
}

func TestMatchesReference2D(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ds := random2D(seed, 15, 20)
		for _, k := range []int{4, 8} {
			want := vcoda.Reference(ds, 3, k, 2.0)
			got, _, err := Mine(storage.NewMemStore(ds), Config{M: 3, K: k, Eps: 2.0})
			if err != nil {
				t.Fatal(err)
			}
			if !model.ConvoysEqual(got, want) {
				t.Fatalf("seed %d k=%d:\n got %v\nwant %v", seed, k, got, want)
			}
		}
	}
}

// Shape regression for the paper's core claim (Table 5): on noisy data
// where convoys are rare, k/2-hop must touch well under half the points the
// full-sweep baseline touches, and pruning must improve as k grows.
// Point-count assertions are deterministic, unlike wall-clock.
func TestPruningShape(t *testing.T) {
	// 5 convoy objects among 60 noise wanderers over 120 ticks.
	rng := rand.New(rand.NewSource(99))
	var pts []model.Point
	for tt := 0; tt < 120; tt++ {
		for i := int32(0); i < 5; i++ {
			pts = append(pts, model.Point{OID: i, T: int32(tt), X: float64(tt)*3 + float64(i), Y: 0})
		}
		for i := int32(100); i < 160; i++ {
			pts = append(pts, model.Point{OID: i, T: int32(tt), X: rng.Float64() * 5000, Y: rng.Float64() * 5000})
		}
	}
	ds := model.NewDataset(pts)
	total := int64(ds.NumPoints())

	processed := func(k int) int64 {
		ms := storage.NewMemStore(ds)
		if _, _, err := Mine(ms, Config{M: 3, K: k, Eps: minetest.Eps}); err != nil {
			t.Fatal(err)
		}
		return ms.Stats().Snapshot().PointsRead
	}
	p20 := processed(20)
	p60 := processed(60)
	if p20 >= total/2 {
		t.Fatalf("k=20 processed %d of %d — pruning too weak", p20, total)
	}
	if p60 >= p20 {
		t.Fatalf("pruning should improve with k: k=60 read %d ≥ k=20 read %d", p60, p20)
	}
	// The baseline reads everything at least once.
	ms := storage.NewMemStore(ds)
	if _, _, err := vcoda.MineStar(ms, 3, 20, minetest.Eps); err != nil {
		t.Fatal(err)
	}
	base := ms.Stats().Snapshot().PointsRead
	if base < total {
		t.Fatalf("baseline read %d < total %d?", base, total)
	}
	if p20*4 > base {
		t.Fatalf("k/2-hop (%d) not ≥4x fewer reads than baseline (%d)", p20, base)
	}
}
