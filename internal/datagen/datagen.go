// Package datagen provides the shared kinematics used by the three dataset
// simulators (brinkhoff, trucks, tdrive): polylines, constant-speed walkers
// and position jitter. The simulators replace the paper's datasets (which
// are either proprietary, large downloads, or produced by a Java tool) with
// deterministic synthetic equivalents that preserve the behaviour the
// algorithms care about: object counts, sampling density, and — crucially —
// the rarity and size of groups that travel together.
package datagen

import (
	"math"
	"math/rand"

	"repro/internal/model"
)

// XY is a 2-D coordinate.
type XY struct{ X, Y float64 }

// Dist returns the Euclidean distance between two coordinates.
func (a XY) Dist(b XY) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Polyline is an open chain of coordinates.
type Polyline []XY

// Length returns the total length of the polyline.
func (p Polyline) Length() float64 {
	total := 0.0
	for i := 1; i < len(p); i++ {
		total += p[i-1].Dist(p[i])
	}
	return total
}

// At returns the coordinate at distance d from the start, clamping to the
// endpoints. A polyline with fewer than 2 points returns its single point
// (or the origin when empty).
func (p Polyline) At(d float64) XY {
	if len(p) == 0 {
		return XY{}
	}
	if len(p) == 1 || d <= 0 {
		return p[0]
	}
	for i := 1; i < len(p); i++ {
		seg := p[i-1].Dist(p[i])
		if d <= seg && seg > 0 {
			f := d / seg
			return XY{
				X: p[i-1].X + (p[i].X-p[i-1].X)*f,
				Y: p[i-1].Y + (p[i].Y-p[i-1].Y)*f,
			}
		}
		d -= seg
	}
	return p[len(p)-1]
}

// Walker advances along a polyline at a fixed speed per tick.
type Walker struct {
	Path  Polyline
	Speed float64 // distance per tick
	pos   float64
	total float64
}

// NewWalker creates a walker at the start of path.
func NewWalker(path Polyline, speed float64) *Walker {
	return &Walker{Path: path, Speed: speed, total: path.Length()}
}

// Step advances one tick and returns the new position and whether the
// walker is still en route (false once the end is reached).
func (w *Walker) Step() (XY, bool) {
	w.pos += w.Speed
	if w.pos >= w.total {
		return w.Path.At(w.total), false
	}
	return w.Path.At(w.pos), true
}

// Pos returns the current position without advancing.
func (w *Walker) Pos() XY { return w.Path.At(w.pos) }

// Jitter returns p displaced by a uniform offset in [-r, r] on each axis.
func Jitter(rng *rand.Rand, p XY, r float64) XY {
	return XY{
		X: p.X + (rng.Float64()*2-1)*r,
		Y: p.Y + (rng.Float64()*2-1)*r,
	}
}

// Emit appends a point for object oid at tick t to pts.
func Emit(pts []model.Point, oid int32, t int32, p XY) []model.Point {
	return append(pts, model.Point{OID: oid, T: t, X: p.X, Y: p.Y})
}

// Stats summarises a generated dataset for experiment tables (paper Table 4).
type Stats struct {
	Points     int
	Objects    int
	Timestamps int
	Width      float64
	Height     float64
}

// Describe computes summary statistics of ds.
func Describe(ds *model.Dataset) Stats {
	ts, te := ds.TimeRange()
	st := Stats{Points: ds.NumPoints(), Objects: len(ds.Objects())}
	if te >= ts {
		st.Timestamps = int(te-ts) + 1
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for t := ts; t <= te; t++ {
		for _, p := range ds.Snapshot(t) {
			minX = math.Min(minX, p.X)
			maxX = math.Max(maxX, p.X)
			minY = math.Min(minY, p.Y)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if st.Points > 0 {
		st.Width = maxX - minX
		st.Height = maxY - minY
	}
	return st
}
