package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
		var k [storage.KeySize]byte
		var v [storage.ValueSize]byte
		binary.BigEndian.PutUint64(k[:], uint64(i)*2654435761)
		binary.LittleEndian.PutUint64(v[:], uint64(i))
		mem.put(k[:], v[:], i%7 == 0)
	}
	for _, c := range []struct {
		dropTombs bool
		want      string
	}{
		{false, "496bc0b6324a64005082ab611ae0ecd662ba3c2897611e289ef91d976e92eff4"},
		{true, "3ec0264ac6fd001290c730b4fe68c4caa1eebf06afec9c065d28ed5e60d7c181"},
	} {
		path := filepath.Join(t.TempDir(), "t.sst")
		if err := writeSSTable(path, mem.iterator(nil), c.dropTombs); err != nil {
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
