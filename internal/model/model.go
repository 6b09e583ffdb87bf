// Package model defines the shared data model for convoy mining: raw
// trajectory points, per-timestamp object positions, object sets, time
// intervals and convoys, together with the (sub-)convoy ordering and the
// maximality filter built on it (Cover, Maximal) that the mining
// algorithms rely on.
//
// Conventions used across the repository:
//
//   - Timestamps are dense int32 ticks. A dataset covers the inclusive range
//     [Ts, Te]; an object may be absent at some ticks.
//   - Object identifiers are int32. An ObjSet is a strictly increasing slice
//     of identifiers, which makes intersection, union and subset tests cheap
//     and allocation-friendly.
//   - A Convoy is an object set plus an inclusive timestamp interval.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Point is one trajectory sample: object OID was at (X, Y) at tick T.
// This mirrors the paper's physical schema <oid, x, y, t>.
type Point struct {
	OID int32
	T   int32
	X   float64
	Y   float64
}

// ObjPos is an object's position within one snapshot (the timestamp is
// implied by the snapshot it belongs to).
type ObjPos struct {
	OID int32
	X   float64
	Y   float64
}

// Dist returns the Euclidean distance between two positions.
func Dist(a, b ObjPos) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between two positions.
// Mining code compares against eps² to avoid square roots in hot loops.
func DistSq(a, b ObjPos) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// ObjSet is a sorted, duplicate-free slice of object identifiers.
// The zero value is the empty set.
type ObjSet []int32

// NewObjSet builds an ObjSet from arbitrary ids (sorts and deduplicates).
func NewObjSet(ids ...int32) ObjSet {
	if len(ids) == 0 {
		return nil
	}
	s := make(ObjSet, len(ids))
	copy(s, ids)
	slices.Sort(s)
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Valid reports whether s is strictly increasing (the ObjSet invariant).
func (s ObjSet) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Contains reports whether id is a member of s.
func (s ObjSet) Contains(id int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Equal reports whether s and t contain exactly the same ids.
func (s ObjSet) Equal(t ObjSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is also a member of t.
func (s ObjSet) SubsetOf(t ObjSet) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Intersect returns the set of ids present in both s and t.
func (s ObjSet) Intersect(t ObjSet) ObjSet {
	var out ObjSet
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// IntersectSize returns |s ∩ t| without allocating.
func (s ObjSet) IntersectSize(t ObjSet) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			n++
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Union returns the set of ids present in either s or t.
func (s ObjSet) Union(t ObjSet) ObjSet {
	out := make(ObjSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, t[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Clone returns an independent copy of s.
func (s ObjSet) Clone() ObjSet {
	if s == nil {
		return nil
	}
	out := make(ObjSet, len(s))
	copy(out, s)
	return out
}

// Key returns a compact string key identifying the set, suitable for use as
// a map key during memoized validation.
func (s ObjSet) Key() string {
	var b strings.Builder
	b.Grow(len(s) * 4)
	for i, id := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

func (s ObjSet) String() string { return "{" + s.Key() + "}" }

// AppendKey appends the set's ids as raw little-endian bytes to dst and
// returns the extended slice. Two sets have equal keys iff they are equal,
// so string(AppendKey(buf[:0])) is the map key of the mining loops' set
// deduplication: four appended bytes per id into a reused buffer, where Key
// formats every id through fmt into a fresh string.
func (s ObjSet) AppendKey(dst []byte) []byte {
	for _, id := range s {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// Interval is an inclusive timestamp interval [Start, End].
type Interval struct {
	Start int32
	End   int32
}

// Len returns the number of timestamps covered by the interval.
func (iv Interval) Len() int {
	if iv.End < iv.Start {
		return 0
	}
	return int(iv.End-iv.Start) + 1
}

// Contains reports whether t lies within the interval.
func (iv Interval) Contains(t int32) bool { return iv.Start <= t && t <= iv.End }

// Overlaps reports whether the two intervals share at least one timestamp.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Start, iv.End) }

// Convoy is a candidate or final convoy: the objects Objs moved together for
// every timestamp in [Start, End]. Whether "together" means partially or
// fully connected depends on the producing algorithm.
type Convoy struct {
	Objs  ObjSet
	Start int32
	End   int32
}

// NewConvoy builds a convoy from a set of ids and an inclusive interval.
func NewConvoy(objs ObjSet, start, end int32) Convoy {
	return Convoy{Objs: objs, Start: start, End: end}
}

// Interval returns the convoy's lifespan.
func (c Convoy) Interval() Interval { return Interval{Start: c.Start, End: c.End} }

// Len returns the convoy's lifetime in timestamps.
func (c Convoy) Len() int { return c.Interval().Len() }

// Size returns the number of objects in the convoy.
func (c Convoy) Size() int { return len(c.Objs) }

// Equal reports whether the two convoys have identical objects and lifespan.
func (c Convoy) Equal(d Convoy) bool {
	return c.Start == d.Start && c.End == d.End && c.Objs.Equal(d.Objs)
}

// SubConvoyOf reports whether c is a sub-convoy of d (Definition 5):
// O(c) ⊆ O(d) and T(c) ⊆ T(d).
func (c Convoy) SubConvoyOf(d Convoy) bool {
	return d.Start <= c.Start && c.End <= d.End && c.Objs.SubsetOf(d.Objs)
}

// StrictSubConvoyOf reports whether c is a sub-convoy of d and c ≠ d.
func (c Convoy) StrictSubConvoyOf(d Convoy) bool {
	return c.SubConvoyOf(d) && !c.Equal(d)
}

// Key returns a canonical string identity for the convoy, suitable for maps.
func (c Convoy) Key() string {
	return fmt.Sprintf("%d:%d:%s", c.Start, c.End, c.Objs.Key())
}

func (c Convoy) String() string {
	return fmt.Sprintf("(%s,%s)", c.Objs, c.Interval())
}

// SortConvoys orders convoys canonically (by start, end, size, then ids) so
// result sets can be compared in tests. The comparison-based generic sort
// avoids the reflect swapper sort.Slice would allocate — this runs on every
// result set the miners return, not just in tests.
func SortConvoys(cs []Convoy) {
	slices.SortFunc(cs, func(a, b Convoy) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		if c := cmp.Compare(len(a.Objs), len(b.Objs)); c != 0 {
			return c
		}
		for k := range a.Objs {
			if c := cmp.Compare(a.Objs[k], b.Objs[k]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// ConvoysEqual reports whether two convoy slices contain the same convoys,
// ignoring order. Both slices are sorted in place.
func ConvoysEqual(a, b []Convoy) bool {
	if len(a) != len(b) {
		return false
	}
	SortConvoys(a)
	SortConvoys(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
