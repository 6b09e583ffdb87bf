package model

import (
	"slices"
	"sort"

	"repro/internal/bitset"
)

// Interner maps the object identifiers live in some scope — a partition, a
// hop-window, one extension walk — to dense local indices [0, Len()), so
// set algebra on those objects can run word-parallel on bitset.Bits instead
// of merging sorted ObjSet slices.
//
// The universe is sorted, and indices are assigned in id order, so index
// order equals id order: decoding a bitset by ascending bit index yields a
// valid (strictly increasing) ObjSet with a single append pass and no sort.
//
// An Interner is a small value (one slice header); create one per scope and
// let it die with the scope. ObjSet remains the representation at every
// public API and persistence boundary — interned bitsets never escape the
// mining internals.
type Interner struct {
	ids ObjSet // sorted universe; dense index i ↔ ids[i]
}

// Intern builds an interner over the given universe. The universe must be a
// valid ObjSet (strictly increasing); it is retained, not copied, so the
// caller must not mutate it while the interner is in use.
func Intern(universe ObjSet) Interner { return Interner{ids: universe} }

// Universe collects the union of all ids occurring in the given cluster
// sets into dst (reset to length 0 first), sorts and deduplicates it, and
// returns it. Passing a previous call's buffer amortizes the allocation.
func Universe(dst ObjSet, sets ...[]ObjSet) ObjSet {
	dst = dst[:0]
	for _, ss := range sets {
		for _, s := range ss {
			dst = append(dst, s...)
		}
	}
	if len(dst) == 0 {
		return dst
	}
	slices.Sort(dst)
	out := dst[:1]
	for _, id := range dst[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the universe size (the bit capacity dense sets need).
func (in Interner) Len() int { return len(in.ids) }

// OID returns the object id at dense index i.
func (in Interner) OID(i int) int32 { return in.ids[i] }

// Index returns the dense index of id, or ok=false when id is not in the
// universe.
func (in Interner) Index(id int32) (int, bool) {
	i := sort.Search(len(in.ids), func(i int) bool { return in.ids[i] >= id })
	if i < len(in.ids) && in.ids[i] == id {
		return i, true
	}
	return 0, false
}

// Encode sets dst to the dense representation of s ∩ universe and returns
// it (ids outside the universe are dropped, which is exactly the projection
// the hop-window and extension phases need). dst is resized to the universe; pass nil to
// allocate. Both s and the universe are sorted, so this is a single merge
// walk, not per-id lookups.
func (in Interner) Encode(s ObjSet, dst *bitset.Bits) *bitset.Bits {
	if dst == nil {
		dst = bitset.New(len(in.ids))
	} else {
		dst.Resize(len(in.ids))
	}
	i, j := 0, 0
	for i < len(s) && j < len(in.ids) {
		switch {
		case s[i] == in.ids[j]:
			dst.Set(j)
			i++
			j++
		case s[i] < in.ids[j]:
			i++
		default:
			// Gallop: s is usually much smaller than the universe, so jump j
			// to the first universe id ≥ s[i] instead of stepping.
			lo := j + 1
			j += sort.Search(len(in.ids)-lo, func(k int) bool { return in.ids[lo+k] >= s[i] }) + 1
		}
	}
	return dst
}

// Decode materializes a dense set back into a sorted ObjSet. Cost is
// proportional to the popcount (one append per set bit), and the result is
// freshly allocated.
func (in Interner) Decode(b *bitset.Bits) ObjSet {
	return in.AppendDecode(nil, b)
}

// AppendDecode appends the ids of the set bits of b to dst in ascending
// order and returns the extended slice.
func (in Interner) AppendDecode(dst ObjSet, b *bitset.Bits) ObjSet {
	b.ForEach(func(i int) { dst = append(dst, in.ids[i]) })
	return dst
}
