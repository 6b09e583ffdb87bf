package flock

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

// mapGridDiskGroups is DiskGroups as it stood on its own hashed grid — a
// map from cell to the rows in it, in input order, scanned as a 5×5 block
// for a disk's members and a 7×7 block for a row's pair partners — kept as
// the reference for the sequence of groups DiskGroups returns.
func mapGridDiskGroups(rows []model.ObjPos, r float64, minSize int) []model.ObjSet {
	n := len(rows)
	if n < minSize || minSize < 1 {
		return nil
	}
	g := newMapGrid(rows, r)
	seen := map[string]bool{}
	var groups []model.ObjSet
	add := func(set model.ObjSet) {
		if key := string(set.AppendKey(nil)); len(set) >= minSize && !seen[key] {
			seen[key] = true
			groups = append(groups, set)
		}
	}
	for i := range rows {
		add(g.members(rows[i].X, rows[i].Y, r))
	}
	for i := 0; i < n; i++ {
		for _, j := range g.near(i, 2*r) {
			if j <= i {
				continue
			}
			for _, c := range diskCentersThrough(rows[i], rows[j], r) {
				add(g.members(c.X, c.Y, r))
			}
		}
	}
	var out []model.ObjSet
	for i, gi := range groups {
		dominated := false
		for j, gj := range groups {
			if i != j && len(gi) <= len(gj) && gi.SubsetOf(gj) && (len(gi) < len(gj) || i > j) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, gi)
		}
	}
	return out
}

type mapGrid struct {
	rows []model.ObjPos
	r    float64
	cell map[[2]int32][]int
}

func newMapGrid(rows []model.ObjPos, r float64) *mapGrid {
	g := &mapGrid{rows: rows, r: r, cell: make(map[[2]int32][]int, len(rows))}
	for i, p := range rows {
		k := g.key(p.X, p.Y)
		g.cell[k] = append(g.cell[k], i)
	}
	return g
}

func (g *mapGrid) key(x, y float64) [2]int32 {
	return [2]int32{int32(math.Floor(x / g.r)), int32(math.Floor(y / g.r))}
}

func (g *mapGrid) members(x, y, dist float64) model.ObjSet {
	span := int32(math.Ceil(dist/g.r)) + 1
	center := g.key(x, y)
	var ids []int32
	d2 := dist * dist
	for cx := center[0] - span; cx <= center[0]+span; cx++ {
		for cy := center[1] - span; cy <= center[1]+span; cy++ {
			for _, i := range g.cell[[2]int32{cx, cy}] {
				dx, dy := g.rows[i].X-x, g.rows[i].Y-y
				if dx*dx+dy*dy <= d2*(1+1e-12)+1e-12 {
					ids = append(ids, g.rows[i].OID)
				}
			}
		}
	}
	return model.NewObjSet(ids...)
}

func (g *mapGrid) near(i int, dist float64) []int {
	p := g.rows[i]
	span := int32(math.Ceil(dist/g.r)) + 1
	center := g.key(p.X, p.Y)
	var out []int
	d2 := dist * dist
	for cx := center[0] - span; cx <= center[0]+span; cx++ {
		for cy := center[1] - span; cy <= center[1]+span; cy++ {
			for _, j := range g.cell[[2]int32{cx, cy}] {
				dx, dy := g.rows[j].X-p.X, g.rows[j].Y-p.Y
				if j != i && dx*dx+dy*dy <= d2 {
					out = append(out, j)
				}
			}
		}
	}
	return out
}

// DiskGroups on the shared index must return exactly the sequence the map
// grid returned — not just the same groups: the sweep engine's emission
// order, and with it every recorded results hash, follows it. Half-integer
// coordinates with integer and half-integer radii put points on cell
// borders, on disk boundaries and on top of each other.
func TestDiskGroupsSequence(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := []float64{1, 2.5, 5, 10}[seed%4]
		minSize := 1 + rng.Intn(4)
		// A field of 6r…16r a side around the origin: from a few crowded disks
		// to scattered pairs.
		side := int(2*r) * (6 + rng.Intn(11))
		rows := make([]model.ObjPos, 5+rng.Intn(146))
		for i := range rows {
			rows[i] = pos(int32(i), float64(rng.Intn(side)-side/2)/2, float64(rng.Intn(side)-side/2)/2)
		}
		got, want := DiskGroups(rows, r, minSize), mapGridDiskGroups(rows, r, minSize)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d rows, r %v, minSize %d): sequences differ\n got  %v\n want %v", seed, len(rows), r, minSize, got, want)
		}
	}
}

// BenchmarkFlockStep measures one Step per op — the disk cover plus the
// sweep engine — on the flock feed of the repository's serve-ingest
// workload (minetest.City, ≈ 110 objects per tick, r = eps = 40), played
// forwards then backwards so candidates keep extending.
func BenchmarkFlockStep(b *testing.B) {
	ticks := minetest.City(1, 45, 1)
	mn := NewMiner(Config{M: minetest.CityM, K: minetest.CityK, R: minetest.CityEps})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mn.Step(int32(i), ticks[minetest.PingPong(i, len(ticks))])
		mn.Drain()
	}
}
