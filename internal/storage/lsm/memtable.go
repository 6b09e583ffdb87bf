package lsm

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/storage"
)

// memtable is an in-memory ordered map from key words to values
// implemented as a skiplist, the standard LSM write buffer. Concurrency
// contract: exactly one writer at a time (the owning DB's write lock
// serialises put), while any number of readers traverse concurrently
// WITHOUT the lock — snapshot reads (snapshot.go) walk the live memtable
// while PutKV keeps inserting. All cross-goroutine state (forward pointers,
// the per-node entry, the list level) is therefore atomic: a reader
// observes each pointer either before or after a store, and both states are
// valid lists. An entry may be a tombstone — a deletion marker that shadows
// any older on-disk version of the key until compaction garbage-collects
// both.
//
// Once the DB rotates the memtable out (flush), nothing writes it again;
// snapshots that captured it keep reading the now-frozen list.
type memtable struct {
	head  *skipNode
	rng   *rand.Rand
	level atomic.Int32
	// n and byteSz are writer-only (read under the DB's write lock or
	// before the memtable is shared).
	n      int
	byteSz int
}

const maxLevel = 16

// memEntry is one write: a value, or a tombstone with a zero value. It is
// immutable once published, so a reader never sees a value from one write
// paired with a tombstone flag from another.
type memEntry struct {
	val  [storage.ValueSize]byte
	tomb bool
}

// accounted is the entry's flush-trigger size: the 8-byte key, the
// 16-byte value (none for a tombstone) and 32 bytes of node overhead.
func (e *memEntry) accounted() int {
	if e.tomb {
		return storage.KeySize + 32
	}
	return storage.KeySize + storage.ValueSize + 32
}

// skipNode is laid out for the common case, a key written once: the key
// word and its first write sit in the node and are immutable once it is
// linked; over is nil until the key is overwritten, and then points at the
// latest write. The tower is sized to the node's own level (mean 1.33), not
// to maxLevel — a fixed [maxLevel] array cost every node 128 bytes of
// mostly nil pointers. next is set before the node is linked and never
// reassigned, so readers may index it without synchronisation; a node is
// only ever reached through a pointer at a level below its height.
type skipNode struct {
	key   uint64
	first memEntry
	over  atomic.Pointer[memEntry]
	next  []atomic.Pointer[skipNode]
}

// load returns the node's current entry, as one write left it.
func (n *skipNode) load() *memEntry {
	if e := n.over.Load(); e != nil {
		return e
	}
	return &n.first
}

func newMemtable(seed int64) *memtable {
	m := &memtable{head: &skipNode{next: make([]atomic.Pointer[skipNode], maxLevel)}, rng: rand.New(rand.NewSource(seed))}
	m.level.Store(1)
	return m
}

func (m *memtable) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// seek returns the last node whose key is below key (the head if none),
// filling update, when non-nil, with that node's predecessor at each level.
func (m *memtable) seek(key uint64, update *[maxLevel]*skipNode) *skipNode {
	x := m.head
	for i := int(m.level.Load()) - 1; i >= 0; i-- {
		for nxt := x.next[i].Load(); nxt != nil && nxt.key < key; nxt = x.next[i].Load() {
			x = nxt
		}
		if update != nil {
			update[i] = x
		}
	}
	return x
}

// ceil returns the first node whose key is ≥ key, or nil. seek stops at the
// last node below key, but the writer may link more nodes below key right
// after it before this reader loads its successor, so the walk skips them.
func (m *memtable) ceil(key uint64) *skipNode {
	n := m.seek(key, nil).next[0].Load()
	for n != nil && n.key < key {
		n = n.next[0].Load()
	}
	return n
}

// put inserts or overwrites key → val. A tombstone (tomb true) records a
// deletion and stores a zero value whatever val holds. Single writer only;
// concurrent readers are safe.
func (m *memtable) put(key uint64, val [storage.ValueSize]byte, tomb bool) {
	if tomb {
		val = [storage.ValueSize]byte{}
	}
	var update [maxLevel]*skipNode
	level := int(m.level.Load())
	x := m.seek(key, &update)
	if nxt := x.next[0].Load(); nxt != nil && nxt.key == key {
		e := &memEntry{val: val, tomb: tomb}
		m.byteSz += e.accounted() - nxt.load().accounted()
		nxt.over.Store(e)
		return
	}
	lvl := m.randomLevel()
	if lvl > level {
		for i := level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level.Store(int32(lvl))
	}
	node := &skipNode{key: key, first: memEntry{val: val, tomb: tomb}, next: make([]atomic.Pointer[skipNode], lvl)}
	// Link bottom-up: the node is fully initialised (key, entry, next
	// pointers at level i) before the store that publishes it at level i,
	// so a reader that finds it through any level sees a complete node.
	for i := 0; i < lvl; i++ {
		node.next[i].Store(update[i].next[i].Load())
		update[i].next[i].Store(node)
	}
	m.n++
	m.byteSz += node.first.accounted()
}

// get returns the current entry for key: val is nil when the memtable
// holds no version of it, and tomb is set (with a zero val) when that
// version is a deletion marker. val aliases an immutable entry. Safe to
// call concurrently with one writer.
func (m *memtable) get(key uint64) (val []byte, tomb bool) {
	if n := m.ceil(key); n != nil && n.key == key {
		e := n.load()
		return e.val[:], e.tomb
	}
	return nil, false
}

// len returns the number of entries (tombstones included). Writer-only.
func (m *memtable) len() int { return m.n }

// bytes returns the accounted size, 56 B per value and 40 B per tombstone,
// that triggers flushes. It is a flush trigger, not a heap measurement: an
// entry really holds a 64-byte node (key word, first write, overwrite
// pointer, tower header) and 8 bytes per tower level, each rounded up to an
// allocation size class — 74 B for the archive's 16-byte locator, 1.3× the
// 56 B accounted (TestMemtableBytesPerEntry pins it). Writer-only.
func (m *memtable) bytes() int { return m.byteSz }

// iterator returns a memIter positioned at the first key ≥ start. Safe to
// call concurrently with one writer; keys inserted behind the iterator's
// position after this call are not visited, keys ahead may be.
func (m *memtable) iterator(start uint64) *memIter {
	it := &memIter{node: m.ceil(start)}
	it.loadEntry()
	return it
}

// memIter walks the skiplist in key order, tombstones included. The entry
// is captured once per position so value() and tomb() — called separately
// by the merge iterator — always describe the same write.
type memIter struct {
	node *skipNode
	e    *memEntry
}

func (it *memIter) loadEntry() {
	if it.node != nil {
		it.e = it.node.load()
	}
}

func (it *memIter) valid() bool   { return it.node != nil }
func (it *memIter) key() uint64   { return it.node.key }
func (it *memIter) value() []byte { return it.e.val[:] }
func (it *memIter) tomb() bool    { return it.e.tomb }
func (it *memIter) next() {
	it.node = it.node.next[0].Load()
	it.loadEntry()
}
