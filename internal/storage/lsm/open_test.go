package lsm

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// tableBytes returns the file writeSSTable makes of n records with keys
// (i/50, i%50), every seventh a tombstone.
func tableBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	var mem memtable
	for i := 0; i < n; i++ {
		mem.put(keyWord(int32(i/50), int32(i%50)), storage.EncodeValue(float64(i), 1), i%7 == 3)
	}
	path := filepath.Join(tb.TempDir(), "t.sst")
	if err := writeSSTable(path, mem.sealed().iterator(0), false); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestSSTableCorruptFooterRejected: openSSTable checks the footer and the
// block index against the file before trusting either. Each corruption
// below used to open — or to ask for tens of gigabytes and kill the
// process — and must now be an error.
func TestSSTableCorruptFooterRejected(t *testing.T) {
	const entry = storage.KeySize + 8 + 4 // firstKey | u64 offset | u32 count
	valid := tableBytes(t, 1000)          // six blocks, the last one short
	ft := len(valid) - footerSize
	indexOff := int(binary.LittleEndian.Uint64(valid[ft:]))
	if n := binary.LittleEndian.Uint32(valid[ft+8:]); n != 6 {
		t.Fatalf("test table has %d blocks, want 6", n)
	}
	u64 := func(b []byte, at int, f func(uint64) uint64) {
		binary.LittleEndian.PutUint64(b[at:], f(binary.LittleEndian.Uint64(b[at:])))
	}
	u32 := func(b []byte, at int, f func(uint32) uint32) {
		binary.LittleEndian.PutUint32(b[at:], f(binary.LittleEndian.Uint32(b[at:])))
	}
	// Field positions: footer indexOff at ft, numBlocks at ft+8; index entry
	// i's first key at ent(i), its offset at ent(i)+8, its count at ent(i)+16.
	ent := func(i int) int { return indexOff + i*entry }
	firstKey := func(b []byte, i int) uint64 { return binary.BigEndian.Uint64(b[ent(i):]) }
	setFirstKey := func(b []byte, i int, k uint64) { binary.BigEndian.PutUint64(b[ent(i):], k) }
	for _, c := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"index runs into the footer", func(b []byte) { u32(b, ft+8, func(n uint32) uint32 { return n + 1 }) }},
		{"index ends before the footer", func(b []byte) { u32(b, ft+8, func(n uint32) uint32 { return n - 1 }) }},
		{"index offset off by one", func(b []byte) { u64(b, ft, func(o uint64) uint64 { return o + 1 }) }},
		{"index offset past the file", func(b []byte) { u64(b, ft, func(uint64) uint64 { return math.MaxUint64 - 7 }) }},
		{"first block not at offset 0", func(b []byte) { u64(b, ent(0)+8, func(uint64) uint64 { return recSize }) }},
		{"gap between blocks", func(b []byte) { u64(b, ent(1)+8, func(o uint64) uint64 { return o + recSize }) }},
		{"overlapping blocks", func(b []byte) { u64(b, ent(2)+8, func(o uint64) uint64 { return o - recSize }) }},
		{"empty block", func(b []byte) { u32(b, ent(0)+16, func(uint32) uint32 { return 0 }) }},
		{"block over blockRecs", func(b []byte) { u32(b, ent(5)+16, func(uint32) uint32 { return blockRecs + 1 }) }},
		{"huge block count", func(b []byte) { u32(b, ent(3)+16, func(uint32) uint32 { return math.MaxUint32 }) }},
		{"blocks end before the index", func(b []byte) { u32(b, ent(5)+16, func(n uint32) uint32 { return n - 1 }) }},
		{"repeated first key", func(b []byte) { setFirstKey(b, 1, firstKey(b, 0)) }},
		{"descending first keys", func(b []byte) { setFirstKey(b, 2, firstKey(b, 1)-1) }},
		{"first keys out of order", func(b []byte) { setFirstKey(b, 4, firstKey(b, 0)) }},
		{"record count off", func(b []byte) { u64(b, ft+12, func(n uint64) uint64 { return n + 1 }) }},
		{"more tombstones than records", func(b []byte) { u64(b, ft+20, func(uint64) uint64 { return 1001 }) }},
		{"huge block total", func(b []byte) { u32(b, ft+8, func(uint32) uint32 { return 0xFFFFFFF0 }) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			c.mutate(b)
			path := filepath.Join(t.TempDir(), "x.sst")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			tab, err := openSSTable(path)
			if err == nil {
				tab.close()
				t.Fatal("openSSTable accepted the corrupt table")
			}
			t.Log(err)
		})
	}
	// The uncorrupted table opens.
	path := filepath.Join(t.TempDir(), "ok.sst")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(path)
	if err != nil {
		t.Fatalf("valid table: %v", err)
	}
	tab.close()
}

// A table of the format earlier builds wrote (magic K2S2, with a bloom
// filter) is refused with an error that names the format. The bare footer
// here claims 0xFFFFFFF0 blocks: the format is checked before the footer
// is believed. testdata/lsm-k2s2 is a whole database such a build wrote
// with WriteDataset; Open refuses it the same way.
func TestSSTableOldFormatRejected(t *testing.T) {
	footer := make([]byte, 44)
	binary.LittleEndian.PutUint32(footer[8:], 0xFFFFFFF0)
	copy(footer[40:], "K2S2")
	path := filepath.Join(t.TempDir(), "old.sst")
	if err := os.WriteFile(path, footer, 0o644); err != nil {
		t.Fatal(err)
	}
	if tab, err := openSSTable(path); err == nil || !strings.Contains(err.Error(), "K2S2") {
		if tab != nil {
			tab.close()
		}
		t.Fatalf("openSSTable of a K2S2 footer = %v, want an error naming K2S2", err)
	}

	dir := t.TempDir()
	for _, name := range []string{"MANIFEST", "sst-000000.sst"} {
		data, err := os.ReadFile(filepath.Join("testdata", "lsm-k2s2", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, nil)
	if err == nil {
		db.Close()
		t.Fatal("Open of a K2S2 database succeeded")
	}
	if !strings.Contains(err.Error(), "K2S2") {
		t.Fatalf("Open of a K2S2 database = %v, want an error naming K2S2", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sst-000000.sst")); err != nil {
		t.Fatalf("the refused table is gone: %v", err)
	}
}

// FuzzSSTableOpen mutates the bytes of valid tables. A mutated table must
// either fail to open or answer every read — a full Scan, and Snapshot and
// Fetch at the ticks it holds — without a panic.
func FuzzSSTableOpen(f *testing.F) {
	for _, n := range []int{0, 1, 170, 171, 400} {
		f.Add(tableBytes(f, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "sst-000000.sst"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifestData([]string{"sst-000000.sst"}), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, &Options{BlockCacheBytes: 1})
		if err != nil {
			return
		}
		defer db.Close()
		oids := map[int32][]int32{}
		n := 0
		if err := db.Scan(storage.EncodeKey(math.MinInt32, math.MinInt32), func(k, v []byte) bool {
			tick, oid := storage.DecodeKey(k)
			if len(oids) < 16 || oids[tick] != nil {
				oids[tick] = append(oids[tick], oid)
			}
			n++
			return n < 5000
		}); err != nil {
			t.Fatal(err)
		}
		for tick, ids := range oids {
			if _, err := db.Snapshot(tick); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, math.MinInt32, -1, math.MaxInt32)
			if _, err := db.Fetch(tick, model.NewObjSet(ids...)); err != nil {
				t.Fatal(err)
			}
		}
	})
}
