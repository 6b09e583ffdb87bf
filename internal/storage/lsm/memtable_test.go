package lsm

import (
	"runtime"
	"testing"

	"repro/internal/storage"
)

// TestMemtableSeal pins the two things a seal must keep. The heap a
// memtable holds per buffered write stays within writeCharge — in the
// tail, in a run adopted from the tail, and in a run merged from a run and
// a tail — on the shape the archive indexes write: scattered 8-byte keys
// and 16-byte locators. The archive sizes its three write buffers from
// CacheBytes in charged bytes, so a write that outgrew its charge would let
// them outgrow that budget. And the newest write of a key wins, within one
// tail and across seals, while a run sealed earlier keeps what it held.
func TestMemtableSeal(t *testing.T) {
	const n = 100_000
	var m memtable
	var val [storage.ValueSize]byte
	heapPerWrite := func(stage string, base uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		perWrite := float64(ms.HeapAlloc-base) / float64(m.writes)
		t.Logf("%s: %.1f B of heap per write, charged %d", stage, perWrite, writeCharge)
		if perWrite > float64(writeCharge) {
			t.Fatalf("%s: a buffered write holds %.1f B of heap, more than its %d B charge", stage, perWrite, writeCharge)
		}
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < n; i++ {
		m.put(i*0x9e3779b97f4a7c15, val, false) // scattered, as oids are
	}
	heapPerWrite("tail", before.HeapAlloc)
	m.sealed()
	heapPerWrite("adopted run", before.HeapAlloc)
	for i := uint64(0); i < n/2; i++ {
		m.put((2*i)*0x9e3779b97f4a7c15+uint64(i%2), val, false) // half overwrites, half new keys
	}
	m.sealed()
	heapPerWrite("merged run", before.HeapAlloc)
	runtime.KeepAlive(&m)

	// Newest write wins: k ends as a value, j as a tombstone, both written
	// out of key order among other keys in one tail.
	m = memtable{}
	k, j := keyWord(5, 5), keyWord(5, 6)
	for i, w := range []struct {
		key  uint64
		tomb bool
	}{{k, false}, {j, false}, {keyWord(9, 0), false}, {k, true}, {j, true}, {keyWord(1, 0), false}, {k, false}} {
		m.put(w.key, storage.EncodeValue(float64(i), 0), w.tomb)
	}
	first := m.sealed()
	if len(first) != 4 {
		t.Fatalf("sealed run holds %d records for 4 keys", len(first))
	}
	if v, tomb := first.get(k); tomb || v == nil {
		t.Fatalf("k after value, tombstone, value: tomb=%v val=%v", tomb, v)
	} else if x, _ := storage.DecodeValue(v); x != 6 {
		t.Fatalf("k reads write %v, want the newest (6)", x)
	}
	if _, tomb := first.get(j); !tomb {
		t.Fatal("j after value, tombstone: the tombstone lost to the older value")
	}
	// Across seals the tail wins, and the earlier run is not touched.
	m.put(k, val, true)
	m.put(j, storage.EncodeValue(7, 0), false)
	second := m.sealed()
	if _, tomb := second.get(k); !tomb {
		t.Fatal("a later tombstone for k lost to the sealed value")
	}
	if v, tomb := second.get(j); tomb || v == nil {
		t.Fatal("a later value for j lost to the sealed tombstone")
	}
	if _, tomb := first.get(k); tomb {
		t.Fatal("sealing again changed a run sealed earlier")
	}
}

// TestMemtableOverwriteAccounting: an overwrite is charged like any write —
// it holds a record of its own in the tail until a seal folds it — and the
// seal keeps one record per key.
func TestMemtableOverwriteAccounting(t *testing.T) {
	var m memtable
	k := keyWord(3, 4)
	for i, tomb := range []bool{false, true, false} {
		m.put(k, storage.EncodeValue(float64(i), 0), tomb)
		if m.bytes() != (i+1)*writeCharge {
			t.Fatalf("after %d writes (tomb=%v): %d bytes charged, want %d", i+1, tomb, m.bytes(), (i+1)*writeCharge)
		}
	}
	if run := m.sealed(); len(run) != 1 {
		t.Fatalf("three writes of one key sealed into %d records, want 1", len(run))
	}
}
