// Package postings holds the inverted index the per-tick miners match sets
// through: which of a tick's sets contain a given object. Finding the sets
// that intersect a query set then costs a walk over the query's members'
// postings instead of a comparison with every set.
package postings

import "slices"

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
