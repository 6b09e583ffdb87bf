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
// the golden hash was recorded (when format K2S4 dropped the tombstone
// flag byte and the footer's tombstone count). 1 000 entries span several
// data blocks.
func TestSSTableBytesUnchanged(t *testing.T) {
	const want = "61181a24a9a91ed9b8194f5331582873483a2371c369005e0e0ef2f2b6e59648"
	var mem memtable
	for i := 0; i < 1000; i++ {
		var v [storage.ValueSize]byte
		binary.LittleEndian.PutUint64(v[:], uint64(i))
		mem.put(uint64(i)*2654435761, v)
	}
	path := filepath.Join(t.TempDir(), "t.sst")
	if err := writeSSTable(path, mem.sealed().iterator(0), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("table of %d bytes hashes to %s, want %s", len(data), got, want)
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
