package lsm

import (
	"cmp"
	"slices"
	"unsafe"

	"repro/internal/storage"
)

// memtable is the LSM write buffer, in two parts. run is sorted by key,
// holds one write per key and is never modified once published: a snapshot
// captures the slice and reads it with no lock. tail holds the writes made
// since the last seal, in write order; only the writer appends to it, under
// the DB's write lock, and no reader sees it. seal folds the tail into a
// fresh run.
type memtable struct {
	run  memRun
	tail []memRec
	// writes counts the writes buffered since the memtable was last emptied,
	// overwrites included.
	writes int
	// next is the length of the last tail sealed: the next tail is allocated
	// at it on its first write, so a burst like the last one never regrows.
	next int
}

// memRec is one buffered write.
type memRec struct {
	key uint64
	val [storage.ValueSize]byte
}

// writeCharge is what one buffered write counts against
// Options.MemtableBytes: two records. A write occupies one record in the
// tail and, once sealed, at most one in the run; while a seal sorts the
// tail, it occupies a second record, in the sort's scratch. A tail is
// allocated at the length of the last tail sealed, and the flush threshold
// keeps that at most MemtableBytes/writeCharge records, so a memtable flushed
// at its budget holds about half of it at rest and the whole of it while
// the flush sorts.
const writeCharge = 2 * int(unsafe.Sizeof(memRec{}))

// put appends key → val to the tail. Writer only.
func (m *memtable) put(key uint64, val [storage.ValueSize]byte) {
	if m.tail == nil {
		m.tail = make([]memRec, 0, m.next)
	}
	m.tail = append(m.tail, memRec{key: key, val: val})
	m.writes++
}

// bytes returns the charged size that triggers flushes (see writeCharge).
func (m *memtable) bytes() int { return m.writes * writeCharge }

// sealed folds the tail into the run and returns the run. The tail is
// sorted by key, stably, and reduced to each key's newest write — the last
// of its equal-key run; it becomes the run as it is when the run is empty,
// and is merged with the run into a fresh slice otherwise, the tail winning
// ties. A run published earlier is never written again. Writer only.
func (m *memtable) sealed() memRun {
	if len(m.tail) == 0 {
		return m.run
	}
	tail := radixSort(m.tail)
	m.next, m.tail = len(m.tail), nil
	w := 0
	for i := range tail {
		if i+1 < len(tail) && tail[i+1].key == tail[i].key {
			continue
		}
		tail[w] = tail[i]
		w++
	}
	tail = tail[:w]
	if len(m.run) == 0 {
		m.run = tail
		return m.run
	}
	out := make(memRun, 0, len(m.run)+len(tail))
	old := m.run
	for len(old) > 0 && len(tail) > 0 {
		switch {
		case old[0].key < tail[0].key:
			out, old = append(out, old[0]), old[1:]
		case old[0].key > tail[0].key:
			out, tail = append(out, tail[0]), tail[1:]
		default:
			out, old, tail = append(out, tail[0]), old[1:], tail[1:]
		}
	}
	m.run = append(append(out, old...), tail...)
	return m.run
}

// radixSort sorts recs by key with a stable least-significant-byte-first
// radix sort and returns the sorted records: recs itself, or a scratch
// slice as long as recs, whichever the last pass wrote. One counting pass
// fills all eight byte histograms; a byte every key shares needs no pass,
// and keys that share all eight need no scratch.
func radixSort(recs []memRec) []memRec {
	var counts [8][256]int
	for i := range recs {
		k := recs[i].key
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := recs, []memRec(nil)
	for b := range counts {
		c := &counts[b]
		if c[byte(src[0].key>>(8*b))] == len(src) {
			continue
		}
		if dst == nil {
			dst = make([]memRec, len(src))
		}
		off := 0
		for d, n := range c {
			c[d] = off
			off += n
		}
		for i := range src {
			d := byte(src[i].key >> (8 * b))
			dst[c[d]] = src[i]
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// memRun is a sealed run: sorted by key, one write per key, immutable.
type memRun []memRec

// find returns the index of the first record whose key is ≥ key.
func (r memRun) find(key uint64) int {
	i, _ := slices.BinarySearchFunc(r, key, func(e memRec, k uint64) int { return cmp.Compare(e.key, k) })
	return i
}

// get returns the run's value of key, or nil when the run does not hold it.
func (r memRun) get(key uint64) []byte {
	if i := r.find(key); i < len(r) && r[i].key == key {
		return r[i].val[:]
	}
	return nil
}

// iterator returns a memIter positioned at the first key ≥ start.
func (r memRun) iterator(start uint64) *memIter { return &memIter{recs: r[r.find(start):]} }

// memIter walks a run in key order.
type memIter struct{ recs memRun }

func (it *memIter) valid() bool   { return len(it.recs) > 0 }
func (it *memIter) key() uint64   { return it.recs[0].key }
func (it *memIter) value() []byte { return it.recs[0].val[:] }
func (it *memIter) next()         { it.recs = it.recs[1:] }
