package lsm

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

// memtable is an in-memory ordered map from keys to values implemented as a
// skiplist, the standard LSM write buffer. Concurrency contract: exactly one
// writer at a time (the owning DB's write lock serialises put), while any
// number of readers traverse concurrently WITHOUT the lock — snapshot reads
// (snapshot.go) walk the live memtable while PutKV keeps inserting. All
// cross-goroutine state (forward pointers, the per-node entry, the list
// level) is therefore atomic: a reader observes each pointer either before
// or after a store, and both states are valid lists. An entry may be a
// tombstone — a deletion marker that shadows any older on-disk version of
// the key until compaction garbage-collects both.
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

// memEntry is a value that replaced a node's first one. Overwrites swap the
// whole entry atomically, so a reader never sees a value from one write
// paired with a tombstone flag from another.
type memEntry struct {
	val  []byte
	tomb bool
}

// skipNode is laid out for the common case, a key written once: the key and
// its first value share one allocation (kv), the first tombstone flag sits
// in the node, and both are immutable once the node is linked; over is nil
// until the key is overwritten. The tower is sized to the node's own level
// (mean 1.33), not to maxLevel — a fixed [maxLevel] array cost every node
// 128 bytes of mostly nil pointers. next is set before the node is linked
// and never reassigned, so readers may index it without synchronisation; a
// node is only ever reached through a pointer at a level below its height.
type skipNode struct {
	kv   []byte // key, then the first value
	klen uint32
	tomb bool // the first write was a deletion
	over atomic.Pointer[memEntry]
	next []atomic.Pointer[skipNode]
}

func newSkipNode(key, val []byte, tomb bool, level int) *skipNode {
	kv := make([]byte, 0, len(key)+len(val))
	kv = append(append(kv, key...), val...)
	return &skipNode{kv: kv, klen: uint32(len(key)), tomb: tomb, next: make([]atomic.Pointer[skipNode], level)}
}

func (n *skipNode) key() []byte { return n.kv[:n.klen] }

// load returns the node's current value and tombstone flag, as one write
// left them.
func (n *skipNode) load() (val []byte, tomb bool) {
	if e := n.over.Load(); e != nil {
		return e.val, e.tomb
	}
	return n.kv[n.klen:], n.tomb
}

func newMemtable(seed int64) *memtable {
	m := &memtable{head: newSkipNode(nil, nil, false, maxLevel), rng: rand.New(rand.NewSource(seed))}
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

// put inserts or overwrites key → val. Both slices are copied. A tombstone
// entry (tomb true, val ignored) records a deletion. Single writer only;
// concurrent readers are safe.
func (m *memtable) put(key, val []byte, tomb bool) {
	if tomb {
		val = nil
	}
	var update [maxLevel]*skipNode
	x := m.head
	level := int(m.level.Load())
	for i := level - 1; i >= 0; i-- {
		for nxt := x.next[i].Load(); nxt != nil && bytes.Compare(nxt.key(), key) < 0; nxt = x.next[i].Load() {
			x = nxt
		}
		update[i] = x
	}
	if nxt := x.next[0].Load(); nxt != nil && bytes.Equal(nxt.key(), key) {
		old, _ := nxt.load()
		m.byteSz += len(val) - len(old)
		nxt.over.Store(&memEntry{val: append([]byte(nil), val...), tomb: tomb})
		return
	}
	lvl := m.randomLevel()
	if lvl > level {
		for i := level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level.Store(int32(lvl))
	}
	node := newSkipNode(key, val, tomb, lvl)
	// Link bottom-up: the node is fully initialised (key, value, next
	// pointers at level i) before the store that publishes it at level i,
	// so a reader that finds it through any level sees a complete node.
	for i := 0; i < lvl; i++ {
		node.next[i].Store(update[i].next[i].Load())
		update[i].next[i].Store(node)
	}
	m.n++
	m.byteSz += len(key) + len(val) + 32
}

// get returns the entry for key: ok reports whether the memtable holds any
// version of the key, and tomb whether that version is a deletion marker.
// Safe to call concurrently with one writer.
func (m *memtable) get(key []byte) (val []byte, tomb, ok bool) {
	x := m.head
	for i := int(m.level.Load()) - 1; i >= 0; i-- {
		for nxt := x.next[i].Load(); nxt != nil && bytes.Compare(nxt.key(), key) < 0; nxt = x.next[i].Load() {
			x = nxt
		}
	}
	if nxt := x.next[0].Load(); nxt != nil && bytes.Equal(nxt.key(), key) {
		val, tomb = nxt.load()
		return val, tomb, true
	}
	return nil, false, false
}

// len returns the number of entries (tombstones included). Writer-only.
func (m *memtable) len() int { return m.n }

// bytes returns the accounted size, len(key)+len(val)+32 per entry, that
// triggers flushes. It is a flush trigger, not a heap measurement: an entry
// really holds a 64-byte node, its key and value bytes and 8 bytes per
// tower level, each rounded up to an allocation size class — 99 B for the
// archive's 8-byte key and 16-byte locator, 1.8× the 56 B accounted
// (TestMemtableBytesPerEntry pins it). Writer-only.
func (m *memtable) bytes() int { return m.byteSz }

// iterator returns a memIter positioned at the first key ≥ start. Safe to
// call concurrently with one writer; keys inserted behind the iterator's
// position after this call are not visited, keys ahead may be.
func (m *memtable) iterator(start []byte) *memIter {
	x := m.head
	for i := int(m.level.Load()) - 1; i >= 0; i-- {
		for nxt := x.next[i].Load(); nxt != nil && bytes.Compare(nxt.key(), start) < 0; nxt = x.next[i].Load() {
			x = nxt
		}
	}
	it := &memIter{node: x.next[0].Load()}
	it.loadEntry()
	return it
}

// memIter walks the skiplist in key order, tombstones included. The value
// is captured once per position so value() and tomb() — called separately
// by the merge iterator — always describe the same write.
type memIter struct {
	node *skipNode
	val  []byte
	del  bool
}

func (it *memIter) loadEntry() {
	if it.node != nil {
		it.val, it.del = it.node.load()
	} else {
		it.val, it.del = nil, false
	}
}

func (it *memIter) valid() bool   { return it.node != nil }
func (it *memIter) key() []byte   { return it.node.key() }
func (it *memIter) value() []byte { return it.val }
func (it *memIter) tomb() bool    { return it.del }
func (it *memIter) next() {
	it.node = it.node.next[0].Load()
	it.loadEntry()
}
