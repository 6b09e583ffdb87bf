// Package bitset is a fixed-capacity bitmap over a small dense index range,
// with the operations the SPARE baseline's apriori enumerator needs. Its
// bits are timestamps, not objects: a pair's co-clustering sequence has bit
// i set when the two objects shared a cluster at tick ts+i, a group's
// sequence is the AND of its pairs' (AndOf, into one reused buffer per DFS
// depth), and a group can only form a convoy of length ≥ k where that
// sequence has a run of ≥ k set bits (MaxRun prunes, Runs emits).
//
// Sets of objects are sorted model.ObjSets everywhere in the repository;
// see docs/ARCHITECTURE.md "Set representation".
package bitset

import "math/bits"

// Bits is a fixed-capacity bitset. The capacity is set at creation and
// shared by all bitsets an algorithm combines.
type Bits struct {
	n     int
	words []uint64
}

// New returns a bitset with capacity for n bits, all clear.
func New(n int) *Bits {
	if n < 0 {
		n = 0
	}
	return &Bits{n: n, words: make([]uint64, (n+63)/64)}
}

// Set sets bit i. Out-of-range indices are ignored.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// MaxRun returns the length of the longest run of consecutive set bits.
func (b *Bits) MaxRun() int {
	best, cur := 0, 0
	for i := 0; i < len(b.words); i++ {
		w := b.words[i]
		switch w {
		case 0:
			if cur > best {
				best = cur
			}
			cur = 0
		case ^uint64(0):
			cur += 64
		default:
			for bit := 0; bit < 64; bit++ {
				if w&(1<<uint(bit)) != 0 {
					cur++
					if cur > best {
						best = cur
					}
				} else {
					cur = 0
				}
			}
		}
	}
	if cur > best {
		best = cur
	}
	// Trim runs that spill past n (only possible when n%64 != 0 and the
	// caller never set those bits — Set guards them, so no trim needed).
	return best
}

// Runs returns every maximal run of consecutive set bits with length ≥
// minLen, as [start, end] inclusive index pairs in ascending order.
func (b *Bits) Runs(minLen int) [][2]int {
	if minLen < 1 {
		minLen = 1
	}
	var out [][2]int
	start := -1
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minLen {
			out = append(out, [2]int{start, i - 1})
		}
		start = -1
	}
	if start >= 0 && b.n-start >= minLen {
		out = append(out, [2]int{start, b.n - 1})
	}
	return out
}

// SetRange sets every bit in [from, to] inclusive, clamped to capacity.
func (b *Bits) SetRange(from, to int) {
	if from < 0 {
		from = 0
	}
	if to >= b.n {
		to = b.n - 1
	}
	for i := from; i <= to; i++ {
		b.Set(i)
	}
}

// AndOf sets b = x ∩ y and returns the size of the intersection, in one
// word-parallel pass. All three bitsets must share a capacity (b may alias
// x or y).
func (b *Bits) AndOf(x, y *Bits) int {
	n := 0
	for i := range b.words {
		w := x.words[i] & y.words[i]
		b.words[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}
