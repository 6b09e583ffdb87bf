// Package postings holds the overlap join every phase matches sets through:
// which sets of a family share objects with a query set, and how many. An
// object → sets inverted index over the family turns that into a walk over
// the query's members' postings instead of a comparison with every set.
package postings

import (
	"slices"

	"repro/internal/model"
)

// Lists is a reusable CSR adjacency over dense keys [0, n): the entries of
// key k are Of(k), ascending. The zero value is ready for Build, and a
// rebuilt Lists reuses its arrays.
type Lists struct {
	off, post []int32
}

// Of returns the entries of key k. The slice is valid until the next Build.
func (p *Lists) Of(k int32) []int32 { return p.post[p.off[k]:p.off[k+1]] }

// Build fills the lists over keys [0, n) from a flat listing of keys:
// entry i covers the next size(i) keys of flat. Entries are added in order,
// so every key's list ascends.
func (p *Lists) Build(n int, flat []int32, entries int, size func(i int) int) {
	p.off = append(p.off[:0], make([]int32, n+1)...)
	for _, k := range flat {
		p.off[k+1]++
	}
	for k := 0; k < n; k++ {
		p.off[k+1] += p.off[k]
	}
	p.post = slices.Grow(p.post[:0], len(flat))[:len(flat)]
	// Fill with off[k] as key k's write cursor, then shift the offsets back.
	at := 0
	for i := 0; i < entries; i++ {
		n := size(i)
		for _, k := range flat[at : at+n] {
			p.post[p.off[k]] = int32(i)
			p.off[k]++
		}
		at += n
	}
	copy(p.off[1:], p.off[:n])
	p.off[0] = 0
}

// Hit is an indexed set that shares N members with the query.
type Hit struct{ Set, N int32 }

// Index is the object → sets overlap join over a family of ObjSets, which
// may overlap. Build numbers the family's members densely (slots) and lists
// per slot the sets holding that object; Overlaps counts, for a query, the
// members it shares with every set it touches. A query costs one map lookup
// per member plus the postings of the members found, not a comparison with
// every set. The zero value is ready for Build, and a rebuilt Index reuses
// its map and arrays.
type Index struct {
	slot    map[int32]int32 // object id → dense slot among the family's members
	slots   []int32         // member slots of the family, flattened in set order
	sets    Lists           // slot → sets holding the object
	hits    []int32         // per set: members shared with the query at hand
	touched []int32         // sets with hits > 0, for the query at hand
	out     []Hit
	qSlots  []int32 // slot of each member of the last query, -1 where no set holds it
}

// Build indexes the family set(0), …, set(n-1).
func (x *Index) Build(n int, set func(i int) model.ObjSet) {
	if x.slot == nil {
		x.slot = map[int32]int32{}
	}
	clear(x.slot)
	x.slots = x.slots[:0]
	for i := 0; i < n; i++ {
		for _, o := range set(i) {
			s, ok := x.slot[o]
			if !ok {
				s = int32(len(x.slot))
				x.slot[o] = s
			}
			x.slots = append(x.slots, s)
		}
	}
	x.sets.Build(len(x.slot), x.slots, n, func(i int) int { return len(set(i)) })
	x.hits = append(x.hits[:0], make([]int32, n)...)
}

// Overlaps returns every indexed set that shares a member with q, in
// ascending set order, with the number of members shared. The slice is
// reused by the next call.
func (x *Index) Overlaps(q model.ObjSet) []Hit {
	touched, qs := x.touched[:0], x.qSlots[:0]
	for _, o := range q {
		s, ok := x.slot[o]
		if !ok {
			qs = append(qs, -1)
			continue
		}
		for _, j := range x.sets.Of(s) {
			if x.hits[j] == 0 {
				touched = append(touched, j)
			}
			x.hits[j]++
		}
		qs = append(qs, s)
	}
	slices.Sort(touched) // set order, whichever member was hit first
	out := x.out[:0]
	for _, j := range touched {
		out = append(out, Hit{Set: j, N: x.hits[j]})
		x.hits[j] = 0
	}
	x.touched, x.qSlots, x.out = touched, qs, out
	return out
}

// NumSlots returns the number of distinct objects the family holds: its
// members' slots are [0, NumSlots()).
func (x *Index) NumSlots() int { return len(x.slot) }

// Slots returns the family's member slots, flattened in set order. The
// slice is valid until the next Build.
func (x *Index) Slots() []int32 { return x.slots }

// QuerySlots returns the slot of each member of the last query, in member
// order, -1 where no set holds it. The slice is reused by the next query.
func (x *Index) QuerySlots() []int32 { return x.qSlots }

// Holds reports whether set j holds the object of slot s.
func (x *Index) Holds(j, s int32) bool { return slices.Contains(x.sets.Of(s), j) }
