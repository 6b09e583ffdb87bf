package relational

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

// B+tree node layout. Keys are the fixed 8-byte (t,oid) encodings from
// package storage; leaf values are the fixed 16-byte (x,y) encodings.
//
// Leaf page:
//
//	off 0  : u16 type (1 = leaf)
//	off 2  : u16 nkeys
//	off 4  : u32 next leaf page id (0 = none; page 0 is the meta page, so
//	         it can double as the nil sentinel)
//	off 8  : entries nkeys × (key[8] | value[16])
//
// Internal page:
//
//	off 0  : u16 type (2 = internal)
//	off 2  : u16 nkeys
//	off 4  : u32 child[0]
//	off 8  : nkeys × (key[8] | u32 child)
//
// An internal node with nkeys separator keys has nkeys+1 children; child[i]
// holds keys < key[i]; child[nkeys] holds keys ≥ key[nkeys-1].
const (
	typeLeaf     = 1
	typeInternal = 2

	leafHdr    = 8
	leafEntry  = storage.KeySize + storage.ValueSize // 24
	leafCap    = (PageSize - leafHdr) / leafEntry    // 170
	innerHdr   = 8
	innerEntry = storage.KeySize + 4                    // 12
	innerCap   = (PageSize - innerHdr - 4) / innerEntry // 340
)

type btree struct {
	pg   *pager
	root uint32
}

// --- leaf accessors ------------------------------------------------------

func leafN(p []byte) int       { return int(getU16(p, 2)) }
func leafNext(p []byte) uint32 { return getU32(p, 4) }
func leafKey(p []byte, i int) []byte {
	off := leafHdr + i*leafEntry
	return p[off : off+storage.KeySize]
}
func leafVal(p []byte, i int) []byte {
	off := leafHdr + i*leafEntry + storage.KeySize
	return p[off : off+storage.ValueSize]
}

func initLeaf(p []byte) {
	putU16(p, 0, typeLeaf)
	putU16(p, 2, 0)
	putU32(p, 4, 0)
}

// --- internal accessors --------------------------------------------------

func innerN(p []byte) int { return int(getU16(p, 2)) }
func innerChild(p []byte, i int) uint32 {
	if i == 0 {
		return getU32(p, 4)
	}
	off := innerHdr + (i-1)*innerEntry + storage.KeySize
	return getU32(p, off)
}
func innerKey(p []byte, i int) []byte {
	off := innerHdr + i*innerEntry
	return p[off : off+storage.KeySize]
}

func initInner(p []byte, child0 uint32) {
	putU16(p, 0, typeInternal)
	putU16(p, 2, 0)
	putU32(p, 4, child0)
}

func pageType(p []byte) int { return int(getU16(p, 0)) }

// get returns a copy of the value stored under key, or nil if absent.
func (t *btree) get(key []byte) ([]byte, error) {
	c := t.seek(key)
	if !c.valid() || !bytes.Equal(c.key(), key) {
		return nil, c.err
	}
	return append([]byte(nil), c.value()...), nil
}

// childIndex returns which child of internal page p covers key.
func (t *btree) childIndex(p []byte, key []byte) int {
	n := innerN(p)
	lo, hi := 0, n // find first separator > key ⇒ child index
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(innerKey(p, mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSearch returns the first index i ≥ lo with leafKey(i) ≥ key.
func leafSearch(p []byte, lo int, key []byte) int {
	hi := leafN(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(leafKey(p, mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cursor iterates leaf entries in key order starting at the first key ≥
// start.
type cursor struct {
	t    *btree
	page []byte
	id   uint32
	i    int
	err  error
}

// seek positions a cursor at the first entry with key ≥ start.
func (t *btree) seek(start []byte) *cursor {
	id := t.root
	for {
		p, err := t.pg.read(id)
		if err != nil {
			return &cursor{err: err}
		}
		switch pageType(p) {
		case typeInternal:
			id = innerChild(p, t.childIndex(p, start))
		case typeLeaf:
			c := &cursor{t: t, page: p, id: id, i: leafSearch(p, 0, start)}
			c.skipToValid()
			return c
		default:
			return &cursor{err: fmt.Errorf("relational: corrupt page %d type %d", id, pageType(p))}
		}
	}
}

// seekForward moves the cursor to the first entry with key ≥ key, which
// must not be below the cursor's current key. While key ≤ the current
// leaf's last key the search stays on that leaf, resuming at the cursor;
// only a key past it descends from the root again. A cursor past the last
// entry stays there: no larger key exists either.
func (c *cursor) seekForward(key []byte) {
	if !c.valid() {
		return
	}
	if bytes.Compare(key, leafKey(c.page, leafN(c.page)-1)) <= 0 {
		c.i = leafSearch(c.page, c.i, key)
		return
	}
	*c = *c.t.seek(key)
}

func (c *cursor) skipToValid() {
	for c.err == nil && c.page != nil && c.i >= leafN(c.page) {
		next := leafNext(c.page)
		if next == 0 {
			c.page = nil
			return
		}
		p, err := c.t.pg.read(next)
		if err != nil {
			c.err = err
			return
		}
		c.page, c.id, c.i = p, next, 0
	}
}

// valid reports whether the cursor points at an entry.
func (c *cursor) valid() bool { return c.err == nil && c.page != nil }

// key returns the current key (valid until next()).
func (c *cursor) key() []byte { return leafKey(c.page, c.i) }

// value returns the current value (valid until next()).
func (c *cursor) value() []byte { return leafVal(c.page, c.i) }

// next advances the cursor.
func (c *cursor) next() {
	c.i++
	c.skipToValid()
}
