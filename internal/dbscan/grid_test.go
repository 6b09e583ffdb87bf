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
					if cy := math.Floor(p.Y / c.cell); cy < bottom {
						continue // a quarter step below the bottom cell, which the index saturates
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

// indexInputs are position sets for the build and block tests, with a cell
// side of 1: the empty and one-point inputs, random keys over every byte,
// heavy duplicates, one column 200 cells tall, two rows 400 cells wide (a
// range just over one byte), cells on both sides of 0, cells at both int32
// saturation edges and beyond them, and NaN coordinates.
func indexInputs() map[string][]model.ObjPos {
	rng := rand.New(rand.NewSource(5))
	gen := func(n int, x, y func() float64) []model.ObjPos {
		pos := make([]model.ObjPos, n)
		for i := range pos {
			pos[i] = model.ObjPos{OID: int32(i), X: x(), Y: y()}
		}
		return pos
	}
	upTo := func(cells int) func() float64 { return func() float64 { return float64(rng.Intn(cells)) + 0.5 } }
	const top, bottom = math.MaxInt32, math.MinInt32
	edges := []float64{top - 1.5, top - 0.5, top + 0.5, 1e300, math.Inf(1),
		bottom + 0.5, bottom + 1.5, bottom - 0.5, -1e300, math.Inf(-1), -0.5, 0.5}
	edge := func() float64 { return edges[rng.Intn(len(edges))] }
	random := func() float64 { return (rng.Float64() - 0.5) * 2e9 }
	nan := func() float64 {
		if rng.Intn(4) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(6))
	}
	return map[string][]model.ObjPos{
		"empty":       nil,
		"one":         gen(1, upTo(1), upTo(1)),
		"random":      gen(300, random, random),
		"duplicates":  gen(300, upTo(4), upTo(4)),
		"one column":  gen(300, upTo(1), upTo(200)), // one pass: the sort ends in its buffer
		"two rows":    gen(300, upTo(400), upTo(2)),
		"straddles 0": gen(300, func() float64 { return float64(rng.Intn(24))/2 - 6 }, upTo(3)),
		"edges":       gen(300, edge, edge),
		"nan":         gen(200, nan, nan),
	}
}

// The radix sort leaves exactly a comparison sort of the ids by
// (key, id), and every id keeps its own cell's key.
func TestIndexBuildOrder(t *testing.T) {
	for name, pos := range indexInputs() {
		ix := NewIndex(pos, 1)
		want := make([]int32, len(pos))
		for id, p := range pos {
			want[id] = int32(id)
			if ix.keys[id] != ix.keyOf(p) {
				t.Fatalf("%s: id %d has key %#x, its cell's is %#x", name, id, ix.keys[id], ix.keyOf(p))
			}
		}
		slices.SortFunc(want, func(a, b int32) int { return cmp.Or(cmp.Compare(ix.keys[a], ix.keys[b]), cmp.Compare(a, b)) })
		if !slices.Equal(ix.ids, want) {
			t.Errorf("%s: radix-sorted ids differ from a (key, id) sort\ngot  %v\nwant %v", name, ix.ids, want)
		}
	}
}

// blocks visits every cell once, in key order, and each point's block
// answers exactly what Within(p, ·, 1) answers, at radii from coincident
// to unbounded; its size is the number of points whose cells lie within
// one cell of the point's, counted here from the cell coordinates.
func TestBlocksAnswerWithin(t *testing.T) {
	for name, pos := range indexInputs() {
		ix := NewIndex(pos, 1)
		var visited []int32
		ix.blocks(func(cell []int32, block [6]int32) {
			if len(visited) > 0 && ix.keys[visited[len(visited)-1]] >= ix.keys[cell[0]] {
				t.Fatalf("%s: cell %v visited after cell %v", name, cell, visited)
			}
			visited = append(visited, cell...)
			for _, id := range cell {
				p := pos[id]
				if ix.keys[id] != ix.keys[cell[0]] {
					t.Fatalf("%s: ids %d and %d visited as one cell", name, cell[0], id)
				}
				size := 0
				for _, q := range pos {
					dx, dy := int64(ix.cellOf(q.X))-int64(ix.cellOf(p.X)), int64(ix.cellOf(q.Y))-int64(ix.cellOf(p.Y))
					if max(dx, -dx) <= 1 && max(dy, -dy) <= 1 {
						size++
					}
				}
				if got := blockSize(block[:]); got != size {
					t.Fatalf("%s: point %d's block %v holds %d points, its cells %d", name, id, block, got, size)
				}
				for _, distSq := range []float64{0, 0.25, 1, 4, math.Inf(1)} {
					got, want := ix.near(p, block[:], distSq, nil), ix.Within(p, distSq, 1, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: point %d (%v) at distSq %v: its block gives %v, Within %v", name, id, p, distSq, got, want)
					}
				}
			}
		})
		if !slices.Equal(visited, ix.ids) {
			t.Errorf("%s: the cells visited %v, not every id once in order %v", name, visited, ix.ids)
		}
	}
}
