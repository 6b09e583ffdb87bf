package lsm

import "math/bits"

// bloom is a split-block-free, double-hashed Bloom filter sized at build
// time for ~1% false positives (10 bits/key, 7 probes). SSTables persist
// the bit array verbatim; point lookups consult it before touching the
// index, which is what makes LSM point queries cheap for absent keys.
type bloom struct {
	bits  []byte
	nbits uint64
	k     int
}

const (
	bloomBitsPerKey = 10
	bloomProbes     = 7
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	nbits := uint64(n * bloomBitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	// Round up to a whole number of bytes so that a filter reloaded from its
	// persisted bit array (whose capacity is len(bits)*8) hashes to the same
	// positions as the filter that was built in memory.
	nbits = (nbits + 7) / 8 * 8
	return &bloom{bits: make([]byte, nbits/8), nbits: nbits, k: bloomProbes}
}

// bloomFromBytes wraps a persisted bit array.
func bloomFromBytes(b []byte) *bloom {
	return &bloom{bits: b, nbits: uint64(len(b)) * 8, k: bloomProbes}
}

// add inserts a key word.
func (f *bloom) add(key uint64) {
	h1, h2 := bloomHash(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		f.bits[bit>>3] |= 1 << (bit & 7)
	}
}

// mayContain reports whether the key might be present (no false negatives).
func (f *bloom) mayContain(key uint64) bool {
	if f.nbits == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// bloomHash derives two 64-bit hashes from a key word using FNV-1a and a
// mixed variant, the classic Kirsch–Mitzenmacher double-hashing scheme. It
// hashes the word's eight big-endian bytes — the key as the file stores it
// — so filters persisted by any writer of this format keep answering.
func bloomHash(key uint64) (uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h1 uint64 = offset64
	for shift := 56; shift >= 0; shift -= 8 {
		h1 ^= key >> shift & 0xff
		h1 *= prime64
	}
	// Second hash: fmix64 of h1 xored with the key bytes read
	// little-endian.
	h2 := h1 ^ bits.ReverseBytes64(key)
	h2 ^= h2 >> 33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	h2 *= 0xc4ceb9fe1a85ec53
	h2 ^= h2 >> 33
	if h2 == 0 {
		h2 = 1
	}
	return h1, h2
}
