// Package bitset is the repository's shared word-parallel set engine: a
// fixed-capacity bitset over small dense index universes, with the
// operations the two hot consumers need.
//
//   - The SPARE baseline's apriori enumerator uses bits over timestamp
//     indices: intersection of co-clustering sequences and
//     longest-consecutive-run pruning (a group of objects can only form a
//     convoy of length ≥ k if the AND of its pairwise co-clustering
//     sequences has a run of ≥ k set bits).
//   - The k/2-hop pipeline (candidate intersection between benchmark
//     points, hop-window deduplication, the extension walks) uses bits over
//     interned object indices (model.Interner): intersect-into reusable
//     buffers, popcount sizes and word-parallel subset tests replace the
//     sorted-slice ObjSet merges that used to dominate the profile. The
//     per-tick CMC/PCCD sweep is not a consumer: its sets of ~6 objects in
//     a universe of ~1 600 are cheaper to walk through posting lists than
//     to AND 27 words at a time (see cmc.Miner).
//
// All binary operations require both operands to share a capacity; buffers
// are reused across calls via Resize/ClearAll rather than reallocated.
package bitset

import "math/bits"

// Bits is a fixed-capacity bitset. Bit i corresponds to the i-th element of
// whatever dense universe the caller works in (timestamps for SPARE,
// interned object indices for the mining hot path). The capacity is set at
// creation and shared by all bitsets an algorithm combines.
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

// Len returns the bitset's capacity in bits.
func (b *Bits) Len() int { return b.n }

// Set sets bit i. Out-of-range indices are ignored.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i. Out-of-range indices are ignored.
func (b *Bits) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b *Bits) Clone() *Bits {
	out := &Bits{n: b.n, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// And sets b to b ∩ o in place and returns b. Both bitsets must have the
// same capacity.
func (b *Bits) And(o *Bits) *Bits {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
	return b
}

// AndNew returns a new bitset holding b ∩ o.
func (b *Bits) AndNew(o *Bits) *Bits { return b.Clone().And(o) }

// Equal reports whether b and o have the same capacity and the same bits.
func (b *Bits) Equal(o *Bits) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
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

// ClearAll clears every bit, keeping the capacity, and returns b.
func (b *Bits) ClearAll() *Bits {
	for i := range b.words {
		b.words[i] = 0
	}
	return b
}

// Resize sets b's capacity to n bits, all clear, reusing the backing array
// when it is large enough. This is how pooled scratch buffers follow a
// changing universe (e.g. the per-tick interner of the streaming miner)
// without reallocating. Returns b.
func (b *Bits) Resize(n int) *Bits {
	if n < 0 {
		n = 0
	}
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
	return b
}

// Any reports whether at least one bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// AndOf sets b = x ∩ y and returns the size of the intersection, in one
// word-parallel pass. All three bitsets must share a capacity (b may alias
// x or y). This is the fused intersect-into + popcount that replaces the
// allocating ObjSet.Intersect in the mining hot path.
func (b *Bits) AndOf(x, y *Bits) int {
	n := 0
	for i := range b.words {
		w := x.words[i] & y.words[i]
		b.words[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns |b ∩ o| without writing anywhere.
func (b *Bits) AndCount(o *Bits) int {
	n := 0
	for i := range b.words {
		n += bits.OnesCount64(b.words[i] & o.words[i])
	}
	return n
}

// CountAtLeast reports whether at least m bits are set, with early exit.
func (b *Bits) CountAtLeast(m int) bool {
	if m <= 0 {
		return true
	}
	n := 0
	for _, w := range b.words {
		if w != 0 {
			n += bits.OnesCount64(w)
			if n >= m {
				return true
			}
		}
	}
	return false
}

// Or sets b to b ∪ o in place and returns b. Both bitsets must have the
// same capacity.
func (b *Bits) Or(o *Bits) *Bits {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
	return b
}

// OrOf sets b = x ∪ y and returns the size of the union, in one
// word-parallel pass. All three bitsets must share a capacity.
func (b *Bits) OrOf(x, y *Bits) int {
	n := 0
	for i := range b.words {
		w := x.words[i] | y.words[i]
		b.words[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether every set bit of b is also set in o
// (word-parallel: b &^ o must be all-zero). Both bitsets must have the same
// capacity. This replaces ObjSet.SubsetOf in the domination pruning loops.
func (b *Bits) SubsetOf(o *Bits) bool {
	for i := range b.words {
		if b.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending index order.
func (b *Bits) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendIndices appends the indices of the set bits to dst in ascending
// order and returns the extended slice. The loop peels one set bit per
// iteration (w &= w-1), so cost is proportional to the popcount, not the
// capacity.
func (b *Bits) AppendIndices(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AppendKey appends a compact byte key identifying b's contents (not its
// capacity) to dst and returns the extended slice. Two bitsets over the
// same universe have equal keys iff they hold the same set, so
// string(AppendKey(nil)) is a cheap map key for set-level deduplication —
// 8 bytes per 64 ids instead of ObjSet.Key's formatted decimal string.
func (b *Bits) AppendKey(dst []byte) []byte {
	for _, w := range b.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// Pool is a grow-only free list of Bits for scope-local reuse: Get hands
// out a cleared bitset of the requested capacity (recycling a previous one
// when available), Reset returns everything to the free list at once. The
// mining loops hold one Pool per scope (per extension walk, per streaming
// miner) and Reset it each level/tick, so steady-state set algebra
// allocates nothing. A Pool is not safe for concurrent use.
type Pool struct {
	bufs []*Bits
	used int
}

// Get returns a cleared bitset with capacity n, recycling a free one when
// possible. The returned bitset belongs to the pool: it is valid until the
// next Reset.
func (p *Pool) Get(n int) *Bits {
	if p.used < len(p.bufs) {
		b := p.bufs[p.used]
		p.used++
		return b.Resize(n)
	}
	b := New(n)
	p.bufs = append(p.bufs, b)
	p.used++
	return b
}

// Reset returns every bitset handed out since the last Reset to the free
// list. Previously returned bitsets must no longer be used.
func (p *Pool) Reset() { p.used = 0 }
