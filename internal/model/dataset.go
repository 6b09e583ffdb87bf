package model

import (
	"cmp"
	"fmt"
	"slices"
)

// Dataset is an immutable in-memory trajectory dataset organised by
// timestamp. It is the canonical representation produced by the data
// generators and the backing store for the in-memory storage adapter.
//
// Snapshots are stored as ObjPos slices sorted by OID so restricted lookups
// can binary-search.
type Dataset struct {
	ts, te int32
	// snaps[t-ts] holds the objects present at tick t, sorted by OID.
	snaps [][]ObjPos
	n     int // total number of points
}

// NewDataset builds a dataset from raw points. The time range is the min/max
// timestamp observed. Duplicate (oid,t) pairs keep the last occurrence.
func NewDataset(points []Point) *Dataset {
	if len(points) == 0 {
		return &Dataset{ts: 0, te: -1}
	}
	ts, te := points[0].T, points[0].T
	for _, p := range points {
		if p.T < ts {
			ts = p.T
		}
		if p.T > te {
			te = p.T
		}
	}
	d := &Dataset{ts: ts, te: te, snaps: make([][]ObjPos, int(te-ts)+1)}
	for _, p := range points {
		i := int(p.T - ts)
		d.snaps[i] = append(d.snaps[i], ObjPos{OID: p.OID, X: p.X, Y: p.Y})
	}
	for i, snap := range d.snaps {
		d.snaps[i] = CanonSnapshot(snap)
		d.n += len(d.snaps[i])
	}
	return d
}

// IsCanonSnapshot reports whether pos is already in canonical snapshot form:
// OIDs strictly increasing, hence sorted and duplicate-free.
func IsCanonSnapshot(pos []ObjPos) bool {
	for i := 1; i < len(pos); i++ {
		if pos[i-1].OID >= pos[i].OID {
			return false
		}
	}
	return true
}

// CanonSnapshot puts one tick's positions into canonical snapshot form, in
// place: sorted by OID with one position per OID, the last occurrence in
// input order winning. This is the one duplicate-OID rule batch datasets,
// the streaming miners and the server's reorder buffer share, which is what
// makes streaming a feed byte-identical to batch-mining its records. An
// already canonical snapshot costs one linear pass.
func CanonSnapshot(pos []ObjPos) []ObjPos {
	if IsCanonSnapshot(pos) {
		return pos
	}
	// Stable, so that "last occurrence" below really means last in input
	// order among equal OIDs.
	slices.SortStableFunc(pos, func(a, b ObjPos) int { return cmp.Compare(a.OID, b.OID) })
	out := pos[:0]
	for j := range pos {
		if j+1 < len(pos) && pos[j+1].OID == pos[j].OID {
			continue
		}
		out = append(out, pos[j])
	}
	return out
}

// TimeRange returns the inclusive timestamp range [Ts, Te] of the dataset.
// For an empty dataset Te < Ts.
func (d *Dataset) TimeRange() (ts, te int32) { return d.ts, d.te }

// NumPoints returns the total number of stored points.
func (d *Dataset) NumPoints() int { return d.n }

// Snapshot returns all objects present at tick t, sorted by OID. The
// returned slice is shared with the dataset and must not be modified.
func (d *Dataset) Snapshot(t int32) []ObjPos {
	if t < d.ts || t > d.te {
		return nil
	}
	return d.snaps[int(t-d.ts)]
}

// Fetch returns the positions at tick t of the requested objects, in OID
// order, skipping objects absent at t.
//
// Both sides are sorted by OID, so each search starts where the last one
// ended: a step doubles from there until it passes the object, and a binary
// search inside that last step finds it. A set of k objects spread over a
// snapshot of n rows costs O(k log(n/k)) comparisons, and one packed into a
// run of adjacent rows O(k).
func (d *Dataset) Fetch(t int32, oids ObjSet) []ObjPos {
	snap := d.Snapshot(t)
	if len(snap) == 0 || len(oids) == 0 {
		return nil
	}
	out := make([]ObjPos, 0, len(oids))
	i := 0 // every row before i has a smaller OID than the next object
	for _, oid := range oids {
		hi := i
		for step := 1; hi < len(snap) && snap[hi].OID < oid; step *= 2 {
			i, hi = hi+1, hi+step
		}
		hi = min(hi, len(snap))
		for i < hi { // the first row in [i, hi) with OID ≥ oid, else hi
			mid := int(uint(i+hi) >> 1)
			if snap[mid].OID < oid {
				i = mid + 1
			} else {
				hi = mid
			}
		}
		if i == len(snap) {
			break
		}
		if snap[i].OID == oid {
			out = append(out, snap[i])
			i++
		}
	}
	return out
}

// Objects returns the set of all object ids appearing anywhere in the
// dataset.
func (d *Dataset) Objects() ObjSet {
	seen := make(map[int32]struct{})
	for _, snap := range d.snaps {
		for _, p := range snap {
			seen[p.OID] = struct{}{}
		}
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return NewObjSet(ids...)
}

// Restrict returns a new dataset containing only the given objects within
// the given interval, mirroring the paper's DB[T]|O notation. The interval
// is clamped to the dataset's range.
func (d *Dataset) Restrict(objs ObjSet, iv Interval) *Dataset {
	if iv.Start < d.ts {
		iv.Start = d.ts
	}
	if iv.End > d.te {
		iv.End = d.te
	}
	out := &Dataset{ts: iv.Start, te: iv.End}
	if iv.End < iv.Start {
		return out
	}
	out.snaps = make([][]ObjPos, iv.Len())
	for t := iv.Start; t <= iv.End; t++ {
		rows := d.Fetch(t, objs)
		out.snaps[int(t-iv.Start)] = rows
		out.n += len(rows)
	}
	return out
}

// Points flattens the dataset back to a point slice ordered by (t, oid).
func (d *Dataset) Points() []Point {
	out := make([]Point, 0, d.n)
	for i, snap := range d.snaps {
		t := d.ts + int32(i)
		for _, p := range snap {
			out = append(out, Point{OID: p.OID, T: t, X: p.X, Y: p.Y})
		}
	}
	return out
}

func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset{t=[%d,%d] points=%d}", d.ts, d.te, d.n)
}
