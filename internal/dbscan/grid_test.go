package dbscan

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// scanWithin is Within's contract answered by a linear scan: every point at
// most reach cells from p's cell in either axis and within distSq of p,
// cell-major with ids ascending inside a cell. Cell coordinates stay
// float64, so nothing wraps at the int32 extremes.
func scanWithin(pos []model.ObjPos, cell float64, p model.ObjPos, distSq float64, reach int32) []int32 {
	type hit struct {
		cx, cy float64
		id     int32
	}
	var hits []hit
	pcx, pcy := math.Floor(p.X/cell), math.Floor(p.Y/cell)
	for id, q := range pos {
		cx, cy := math.Floor(q.X/cell), math.Floor(q.Y/cell)
		if math.Abs(cx-pcx) <= float64(reach) && math.Abs(cy-pcy) <= float64(reach) && model.DistSq(p, q) <= distSq {
			hits = append(hits, hit{cx, cy, int32(id)})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.cx, b.cx), cmp.Compare(a.cy, b.cy), cmp.Compare(a.id, b.id))
	})
	var ids []int32
	for _, h := range hits {
		ids = append(ids, h.id)
	}
	return ids
}

// Within against the linear scan, at every reach the repository uses
// (DBSCAN's 1, the disk cover's 2 and 3), on point sets that sit on cell
// boundaries, straddle the origin, and fill the first and last cells int32
// can name. Query points are the indexed points plus points of their own;
// the radius is sometimes wider than the reach, so the cell cutoff binds.
func TestIndexWithin(t *testing.T) {
	const top, bottom = math.MaxInt32, math.MinInt32
	cases := []struct {
		name   string
		cell   float64
		origin [2]float64 // lower corner of a 6×6-cell window
	}{
		{"lattice", 1, [2]float64{0, 0}},
		{"negative", 2.5, [2]float64{-7.5, -7.5}},
		{"fractional cell", 0.75, [2]float64{-3, 1.5}},
		{"top cells", 1, [2]float64{top - 5, top - 5}},
		{"bottom cells", 1, [2]float64{bottom, bottom}},
		{"top x, bottom y", 1, [2]float64{top - 5, bottom}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			// Half-cell steps: every other coordinate is a cell boundary. The
			// window's last half step stays inside cell MaxInt32.
			at := func(axis int) float64 { return c.origin[axis] + float64(rng.Intn(12))*c.cell/2 }
			for trial := 0; trial < 60; trial++ {
				pos := make([]model.ObjPos, rng.Intn(40))
				for i := range pos {
					pos[i] = model.ObjPos{OID: int32(i), X: at(0), Y: at(1)}
				}
				ix := NewIndex(pos, c.cell)
				queries := append(slices.Clone(pos), model.ObjPos{X: at(0), Y: at(1)},
					model.ObjPos{X: at(0) + c.cell/4, Y: at(1) - c.cell/4})
				for _, p := range queries {
					if !ix.cellable(p) {
						continue // a quarter step below the bottom cell
					}
					for reach := int32(1); reach <= 3; reach++ {
						for _, radius := range []float64{0, 1, float64(reach), float64(reach) + 1.5} {
							distSq := radius * c.cell * radius * c.cell
							got := ix.Within(p, distSq, reach, nil)
							want := scanWithin(pos, c.cell, p, distSq, reach)
							if !slices.Equal(got, want) {
								t.Fatalf("trial %d: Within(%v, %v, reach %d) = %v, linear scan %v\npoints %v",
									trial, p, distSq, reach, got, want, pos)
							}
						}
					}
				}
			}
		})
	}
}
