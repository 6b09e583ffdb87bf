package model

// ConvoySet maintains a set of convoys closed under the maximality filter:
// inserting a convoy that is a sub-convoy of an existing member is a no-op,
// and inserting a convoy removes all existing members that are sub-convoys
// of it. This implements the update() function used throughout the paper's
// merge, extension and validation phases.
//
// The implementation is a simple slice with an O(n) insert. That is cheap
// where convoys are rare, but not on convoy-dense traffic: mining the
// moving City feed (minetest.City) with core.Mine on one worker spends
// 47 % of its CPU in Update, cumulative (BenchmarkMineCity/moving/k2hop
// under go tool pprof, 2-vCPU Linux VM). A nil *ConvoySet is not usable;
// use new(ConvoySet).
type ConvoySet struct {
	items []Convoy
}

// NewConvoySet returns a set seeded with the given convoys (applying the
// maximality filter between them).
func NewConvoySet(cs ...Convoy) *ConvoySet {
	s := &ConvoySet{}
	for _, c := range cs {
		s.Update(c)
	}
	return s
}

// Update inserts v, preserving the maximality invariant. It reports whether
// v was actually added (false when v is a sub-convoy of an existing member).
func (s *ConvoySet) Update(v Convoy) bool {
	keep := s.items[:0]
	for _, w := range s.items {
		if v.SubConvoyOf(w) {
			// v adds nothing. The invariant guarantees no member is a
			// sub-convoy of another, so nothing can have been dropped
			// before this point (it would be a sub-convoy of w too) and
			// s.items is untouched.
			return false
		}
		if w.SubConvoyOf(v) {
			continue // superseded by v
		}
		keep = append(keep, w)
	}
	s.items = append(keep, v)
	return true
}

// UpdateAll inserts every convoy in vs.
func (s *ConvoySet) UpdateAll(vs []Convoy) {
	for _, v := range vs {
		s.Update(v)
	}
}

// Contains reports whether the set contains a convoy equal to v.
func (s *ConvoySet) Contains(v Convoy) bool {
	for _, w := range s.items {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// Covers reports whether v is a sub-convoy of some member of the set.
func (s *ConvoySet) Covers(v Convoy) bool {
	for _, w := range s.items {
		if v.SubConvoyOf(w) {
			return true
		}
	}
	return false
}

// Len returns the number of convoys in the set.
func (s *ConvoySet) Len() int { return len(s.items) }

// Slice returns the convoys in the set. The slice is owned by the set;
// callers must not modify it.
func (s *ConvoySet) Slice() []Convoy { return s.items }

// Sorted returns a canonical-ordered copy of the set's convoys.
func (s *ConvoySet) Sorted() []Convoy {
	out := make([]Convoy, len(s.items))
	copy(out, s.items)
	SortConvoys(out)
	return out
}

// MaximalConvoys applies the maximality filter to an arbitrary convoy slice
// and returns the surviving convoys in canonical order.
func MaximalConvoys(cs []Convoy) []Convoy {
	s := NewConvoySet(cs...)
	return s.Sorted()
}
