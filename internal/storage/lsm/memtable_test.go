package lsm

import (
	"runtime"
	"slices"
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

// FuzzMemtableSeal runs fuzz-chosen puts and tombstones through one or two
// seals — the first before op split, when there is one, and the last after
// every op — and holds each sealed run to a map model in which a key's
// newest write wins: the run is sorted, holds each key once and equals the
// model, and a run sealed earlier is unchanged by the next seal. Each op is
// three bytes: the first picks tombstone or value and the key's shape, the
// other two the key. The shapes are the cases the radix sort's byte
// skipping must get right: keys differing only in the low byte, keys
// differing only in the high byte, one key written again and again, and
// keys differing in every byte.
func FuzzMemtableSeal(f *testing.F) {
	f.Add(byte(0), []byte{})                          // n = 0
	f.Add(byte(0), []byte{0, 7, 0})                   // n = 1, after an empty seal
	f.Add(byte(9), []byte{4, 7, 0, 5, 7, 0})          // n = 2: one key, value then tombstone
	f.Add(byte(1), []byte{0, 9, 0, 2, 9, 0})          // one key in each shape, then a merge
	f.Add(byte(1), []byte{6, 1, 2, 6, 2, 1, 7, 1, 2}) // all bytes vary, tombstone across seals
	for shape := byte(0); shape < 4; shape++ {
		ops := make([]byte, 0, 3*300)
		for i := 0; i < 300; i++ {
			ops = append(ops, shape<<1|byte(i%5/4), byte(i*37), byte(i*11))
		}
		f.Add(byte(200), ops)
	}
	f.Fuzz(func(t *testing.T, split byte, ops []byte) {
		var m memtable
		model := map[uint64]memRec{}
		check := func(run memRun) {
			t.Helper()
			if len(run) != len(model) {
				t.Fatalf("run holds %d records for %d keys", len(run), len(model))
			}
			for i, r := range run {
				if i > 0 && run[i-1].key >= r.key {
					t.Fatalf("run[%d].key %#x follows %#x: not sorted and unique", i, r.key, run[i-1].key)
				}
				if want := model[r.key]; r != want {
					t.Fatalf("key %#x: run holds %+v, the newest write is %+v", r.key, r, want)
				}
			}
		}
		var first, firstCopy memRun
		n := len(ops) / 3
		for i := 0; i < n; i++ {
			if i == int(split) {
				first = m.sealed()
				check(first)
				firstCopy = slices.Clone(first)
			}
			op := ops[3*i : 3*i+3]
			var key uint64
			switch op[0] >> 1 & 3 {
			case 0:
				key = 0x0123456789abcd00 | uint64(op[1])
			case 1:
				key = uint64(op[1])<<56 | 0x00cdef0123456789
			case 2:
				key = 0x5555555555555555
			case 3:
				key = (uint64(op[1])<<8 | uint64(op[2])) * 0x9e3779b97f4a7c15
			}
			r := memRec{key: key, tomb: op[0]&1 == 1}
			val := storage.EncodeValue(float64(i), 0)
			if !r.tomb {
				r.val = val
			}
			m.put(key, val, r.tomb)
			model[key] = r
		}
		check(m.sealed())
		if !slices.Equal(first, firstCopy) {
			t.Fatal("the last seal changed a run sealed earlier")
		}
	})
}
