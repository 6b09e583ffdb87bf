package lsm

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestMemtableBytesPerEntry measures what a memtable entry occupies on the
// heap against what bytes() accounts for it, on the shape the archive
// indexes write: an 8-byte key and a 16-byte locator, accounted at 56 B.
// One node, one key+value allocation and a tower of the node's own height
// measure ≈ 99 B; the bound is 1.5× the accounted size plus the tower. With
// the fixed maxLevel tower and the separate key, value and entry
// allocations every node carried before, an entry measured 216 B (3.9× the
// accounted size) and three index memtables outgrew the archive's whole
// CacheBytes budget.
func TestMemtableBytesPerEntry(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newMemtable(1)
	var key [8]byte
	var val [16]byte
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i)*0x9e3779b97f4a7c15) // scattered, as oids are
		m.put(key[:], val[:], false)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc-before.HeapAlloc) / n
	accounted := float64(m.bytes()) / n
	const tower = 8 * 4.0 / 3 // a pointer per level; levels are geometric with p = 1/4
	t.Logf("heap %.1f B/entry, accounted %.1f B/entry", heap, accounted)
	if limit := 1.5 * (accounted + tower); heap > limit {
		t.Fatalf("a memtable entry holds %.1f B of heap, more than %.1f B", heap, limit)
	}
	runtime.KeepAlive(m)
}
