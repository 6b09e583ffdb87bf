package lsm

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestSSTableBytesUnchanged pins the table file format: the same input
// iterator must produce the same file, byte for byte, as the writer did when
// the golden hash was recorded (at the commit before the writer stopped
// copying every key for the bloom filter). 1 000 entries span several data
// blocks; every seventh is a tombstone, kept in one table and dropped in
// the other.
func TestSSTableBytesUnchanged(t *testing.T) {
	mem := newMemtable(1)
	for i := 0; i < 1000; i++ {
		var v [storage.ValueSize]byte
		binary.LittleEndian.PutUint64(v[:], uint64(i))
		mem.put(uint64(i)*2654435761, v, i%7 == 0)
	}
	for _, c := range []struct {
		dropTombs bool
		want      string
	}{
		{false, "496bc0b6324a64005082ab611ae0ecd662ba3c2897611e289ef91d976e92eff4"},
		{true, "3ec0264ac6fd001290c730b4fe68c4caa1eebf06afec9c065d28ed5e60d7c181"},
	} {
		path := filepath.Join(t.TempDir(), "t.sst")
		if err := writeSSTable(path, mem.iterator(0), c.dropTombs); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("dropTombs=%v: table of %d bytes hashes to %s, want %s", c.dropTombs, len(data), got, c.want)
		}
	}
}

// TestKeyWordOrder: a key word is the big-endian reading of
// storage.EncodeKey, so comparing words orders keys exactly as comparing
// (t, oid) pairs and as bytes.Compare over the encoded keys — negatives and
// the int32 extremes included.
func TestKeyWordOrder(t *testing.T) {
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	var pairs [][2]int32
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]int32{a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		pairs = append(pairs, [2]int32{int32(rng.Uint32()), int32(rng.Uint32())})
	}
	for _, a := range pairs {
		wa := keyWord(a[0], a[1])
		ka := storage.EncodeKey(a[0], a[1])
		if wa != binary.BigEndian.Uint64(ka[:]) || wordTime(wa) != a[0] || wordOID(wa) != a[1] {
			t.Fatalf("keyWord(%d, %d) = %016x does not round-trip EncodeKey %x", a[0], a[1], wa, ka)
		}
		for _, b := range pairs {
			kb := storage.EncodeKey(b[0], b[1])
			want := cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
			words, byteOrder := cmp.Compare(wa, keyWord(b[0], b[1])), bytes.Compare(ka[:], kb[:])
			if words != want || byteOrder != want {
				t.Fatalf("%v vs %v: words compare %d, bytes %d, pairs %d", a, b, words, byteOrder, want)
			}
		}
	}
}

// bloomHashBytes is bloomHash as it was written over the key's bytes:
// FNV-1a over the 8 big-endian bytes, then fmix64 of that xored with the
// bytes read little-endian.
func bloomHashBytes(key []byte) (uint64, uint64) {
	var h1 uint64 = 14695981039346656037
	for _, b := range key {
		h1 ^= uint64(b)
		h1 *= 1099511628211
	}
	h2 := h1 ^ binary.LittleEndian.Uint64(key)
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

// TestBloomHashMatchesBytes: the word hash must set the same bits the
// byte-wise hash set, or bloom filters persisted in existing tables would
// answer "absent" for keys they hold.
func TestBloomHashMatchesBytes(t *testing.T) {
	words := []uint64{0, 1, 0xff, 1 << 63, math.MaxUint64, keyWord(-5, 9)}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], w)
		g1, g2 := bloomHash(w)
		w1, w2 := bloomHashBytes(b[:])
		if g1 != w1 || g2 != w2 {
			t.Fatalf("bloomHash(%016x) = (%x, %x), byte-wise reference (%x, %x)", w, g1, g2, w1, w2)
		}
	}
}
