package flock

// The smallest-enclosing-circle primitive (Welzl's algorithm), the flock
// tests' validity oracle: a set of points fits in a radius-r disk exactly
// when its minimum enclosing circle has radius ≤ r. The miners never call
// it — DiskGroups builds its groups from candidate disks — so it checks
// them independently.

import (
	"math"

	"repro/internal/model"
)

// Circle is a circle in the plane.
type Circle struct {
	X, Y float64
	R    float64
}

// Contains reports whether p lies in the closed disk (with a small epsilon
// for floating-point robustness).
func (c Circle) Contains(x, y float64) bool {
	dx, dy := x-c.X, y-c.Y
	return dx*dx+dy*dy <= c.R*c.R*(1+1e-12)+1e-12
}

// SEC returns the smallest enclosing circle of the points using Welzl's
// move-to-front algorithm (expected linear time). An empty input yields the
// zero circle.
func SEC(pts []model.ObjPos) Circle {
	// Work on a copy: the algorithm reorders points.
	ps := make([]model.ObjPos, len(pts))
	copy(ps, pts)
	// Deterministic shuffle (fixed LCG) to get expected-linear behaviour
	// without importing math/rand state into library code.
	seed := uint64(0x9E3779B97F4A7C15)
	for i := len(ps) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed % uint64(i+1))
		ps[i], ps[j] = ps[j], ps[i]
	}
	c := Circle{}
	for i, p := range ps {
		if i == 0 {
			c = Circle{X: p.X, Y: p.Y, R: 0}
			continue
		}
		if c.Contains(p.X, p.Y) {
			continue
		}
		// p is on the boundary of the circle of ps[:i+1].
		c = secWithOne(ps[:i], p)
	}
	return c
}

// secWithOne computes the SEC of pts ∪ {q} with q on the boundary.
func secWithOne(pts []model.ObjPos, q model.ObjPos) Circle {
	c := Circle{X: q.X, Y: q.Y, R: 0}
	for i, p := range pts {
		if c.Contains(p.X, p.Y) {
			continue
		}
		c = secWithTwo(pts[:i], q, p)
	}
	return c
}

// secWithTwo computes the SEC of pts ∪ {q1,q2} with q1 and q2 on the
// boundary.
func secWithTwo(pts []model.ObjPos, q1, q2 model.ObjPos) Circle {
	c := circleFrom2(q1, q2)
	for _, p := range pts {
		if c.Contains(p.X, p.Y) {
			continue
		}
		// Degenerate (collinear) triples return an enclosing fallback; keep
		// scanning — later points may still force a recompute.
		c = circleFrom3(q1, q2, p)
	}
	return c
}

func circleFrom2(a, b model.ObjPos) Circle {
	cx, cy := (a.X+b.X)/2, (a.Y+b.Y)/2
	r := math.Hypot(a.X-cx, a.Y-cy)
	return Circle{X: cx, Y: cy, R: r}
}

// circleFrom3 returns the circumcircle of a, b, c, falling back to the
// largest two-point circle when the points are (nearly) collinear.
func circleFrom3(a, b, c model.ObjPos) Circle {
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	d := 2 * (ax*by - ay*bx)
	if math.Abs(d) < 1e-12 {
		// Collinear: the SEC of three collinear points is the circle over
		// the farthest pair.
		best := circleFrom2(a, b)
		if cand := circleFrom2(a, c); cand.R > best.R {
			best = cand
		}
		if cand := circleFrom2(b, c); cand.R > best.R {
			best = cand
		}
		return best
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	cx, cy := a.X+ux, a.Y+uy
	return Circle{X: cx, Y: cy, R: math.Hypot(ux, uy)}
}

// FitsDisk reports whether the points fit in a closed disk of radius r.
func FitsDisk(pts []model.ObjPos, r float64) bool {
	if len(pts) == 0 {
		return true
	}
	return SEC(pts).R <= r*(1+1e-9)
}
