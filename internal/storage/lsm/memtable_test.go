package lsm

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestMemtableBytesPerEntry measures what a memtable entry occupies on the
// heap against what bytes() accounts for it, on the shape the archive
// indexes write: an 8-byte key and a 16-byte locator, accounted at 56 B.
// One 64-byte node holding the key word and the first write, plus a tower
// of the node's own height, measure ≈ 74 B; the bound is 1.5× the
// accounted size plus the tower. The archive sizes its three index write
// buffers from CacheBytes in accounted bytes, so an entry that outgrew its
// accounting would let them outgrow that budget.
func TestMemtableBytesPerEntry(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newMemtable(1)
	var val [16]byte
	for i := 0; i < n; i++ {
		m.put(uint64(i)*0x9e3779b97f4a7c15, val, false) // scattered, as oids are
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

// TestMemtablePutAllocs pins the node layout: a fresh key allocates the
// node and its tower, nothing else; an overwrite allocates only the entry
// it swaps in.
func TestMemtablePutAllocs(t *testing.T) {
	m := newMemtable(1)
	var val [storage.ValueSize]byte
	next := uint64(0)
	if got := testing.AllocsPerRun(1000, func() {
		next += 0x9e3779b97f4a7c15
		m.put(next, val, false)
	}); got != 2 {
		t.Errorf("a fresh-key put allocates %v times, want 2 (node, tower)", got)
	}
	if got := testing.AllocsPerRun(1000, func() { m.put(next, val, false) }); got != 1 {
		t.Errorf("an overwrite allocates %v times, want 1 (the entry)", got)
	}
}

// TestMemtableOverwriteAccounting: an overwrite replaces the entry's
// accounted size, it does not add a second entry.
func TestMemtableOverwriteAccounting(t *testing.T) {
	m := newMemtable(1)
	k := keyWord(3, 4)
	for i, step := range []struct {
		tomb  bool
		bytes int
	}{{false, 56}, {true, 40}, {false, 56}} {
		m.put(k, storage.EncodeValue(float64(i), 0), step.tomb)
		if m.bytes() != step.bytes || m.len() != 1 {
			t.Fatalf("step %d (tomb=%v): bytes %d len %d, want %d and 1", i, step.tomb, m.bytes(), m.len(), step.bytes)
		}
	}
}

// TestMemtableConcurrentOverwrite: one writer toggles a key between
// distinct values and a tombstone while readers get and iterate it. Every
// entry a reader sees must be one the writer wrote whole: a tombstone with
// a zero value, or a value whose two halves agree.
func TestMemtableConcurrentOverwrite(t *testing.T) {
	const writes = 20000
	m := newMemtable(1)
	k := keyWord(7, 7)
	valueOf := func(i uint64) (v [storage.ValueSize]byte) {
		binary.LittleEndian.PutUint64(v[:8], i)
		binary.LittleEndian.PutUint64(v[8:], ^i)
		return v
	}
	check := func(val []byte, tomb bool) string {
		lo, hi := binary.LittleEndian.Uint64(val[:8]), binary.LittleEndian.Uint64(val[8:])
		switch {
		case tomb && (lo != 0 || hi != 0):
			return "tombstone paired with a value"
		case !tomb && (hi != ^lo || lo == 0 || lo > writes):
			return "value the writer never wrote"
		}
		return ""
	}
	m.put(k, valueOf(1), false)
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(iterate bool) {
			defer wg.Done()
			for !done.Load() {
				var msg string
				if iterate {
					it := m.iterator(0)
					if !it.valid() || it.key() != k {
						msg = "iterator lost the key"
					} else {
						msg = check(it.value(), it.tomb())
					}
				} else if val, tomb := m.get(k); val == nil {
					msg = "get lost the key"
				} else {
					msg = check(val, tomb)
				}
				if msg != "" {
					errs <- msg
					return
				}
			}
		}(r%2 == 0)
	}
	for i := uint64(2); i <= writes; i++ {
		m.put(k, valueOf(i), i%3 == 0)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if m.len() != 1 {
		t.Fatalf("len %d after overwrites of one key, want 1", m.len())
	}
}
