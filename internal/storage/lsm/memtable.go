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
// fresh run. An entry may be a tombstone — a deletion marker that shadows
// any older on-disk version of the key until compaction garbage-collects
// both.
type memtable struct {
	run  memRun
	tail []memRec
	// writes counts the writes buffered since the memtable was last emptied,
	// overwrites included.
	writes int
}

// memRec is one buffered write: a value, or a tombstone with a zero value.
// seq is its index in the tail, so a sort on (key, seq) puts the newest
// write of a key first without a stable sort.
type memRec struct {
	key  uint64
	val  [storage.ValueSize]byte
	seq  uint32
	tomb bool
}

// writeCharge is what one buffered write counts against
// Options.MemtableBytes: twice a record. A write occupies one record in the
// tail and, once sealed, at most one in the run; append and the seal that
// adopts a tail as the run leave each slice at most twice its length. So
// the charge bounds the memtable's heap, overwrites included.
const writeCharge = 2 * int(unsafe.Sizeof(memRec{}))

// put appends key → val to the tail. A tombstone (tomb true) records a
// deletion and stores a zero value whatever val holds. Writer only.
func (m *memtable) put(key uint64, val [storage.ValueSize]byte, tomb bool) {
	if tomb {
		val = [storage.ValueSize]byte{}
	}
	m.tail = append(m.tail, memRec{key: key, val: val, seq: uint32(len(m.tail)), tomb: tomb})
	m.writes++
}

// bytes returns the charged size that triggers flushes (see writeCharge).
func (m *memtable) bytes() int { return m.writes * writeCharge }

// sealed folds the tail into the run and returns the run. The tail is
// sorted on (key, newest first) and reduced to each key's newest write; it
// becomes the run as it is when the run is empty, and is merged with the
// run into a fresh slice otherwise, the tail winning ties. A run published
// earlier is never written again. Writer only.
func (m *memtable) sealed() memRun {
	if len(m.tail) == 0 {
		return m.run
	}
	tail := m.tail
	m.tail = nil
	slices.SortFunc(tail, func(a, b memRec) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(b.seq, a.seq)
	})
	tail = slices.CompactFunc(tail, func(a, b memRec) bool { return a.key == b.key })
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

// memRun is a sealed run: sorted by key, one write per key, immutable.
type memRun []memRec

// find returns the index of the first record whose key is ≥ key.
func (r memRun) find(key uint64) int {
	i, _ := slices.BinarySearchFunc(r, key, func(e memRec, k uint64) int { return cmp.Compare(e.key, k) })
	return i
}

// get returns the run's write of key: val is nil when the run holds none,
// and tomb is set (with a zero val) when it is a deletion marker.
func (r memRun) get(key uint64) (val []byte, tomb bool) {
	if i := r.find(key); i < len(r) && r[i].key == key {
		return r[i].val[:], r[i].tomb
	}
	return nil, false
}

// iterator returns a memIter positioned at the first key ≥ start.
func (r memRun) iterator(start uint64) *memIter { return &memIter{recs: r[r.find(start):]} }

// memIter walks a run in key order, tombstones included.
type memIter struct{ recs memRun }

func (it *memIter) valid() bool   { return len(it.recs) > 0 }
func (it *memIter) key() uint64   { return it.recs[0].key }
func (it *memIter) value() []byte { return it.recs[0].val[:] }
func (it *memIter) tomb() bool    { return it.recs[0].tomb }
func (it *memIter) next()         { it.recs = it.recs[1:] }
