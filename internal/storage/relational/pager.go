// Package relational implements the paper's k2-RDBMS storage variant: a
// page-based table with a clustered B+tree on the composite key
// (timestamp, oid), the same physical design as a relational table with a
// multi-column clustering index (§5.1).
//
// A table is built once and only read. WriteDataset is the one builder: it
// streams the sorted leaves, then each inner level, straight to the file
// and writes the meta page last. Open opens the file read-only behind a
// pager, a small LRU buffer pool of page reads, so the I/O counters reflect
// actual page reads. The engine serves the two access paths convoy mining
// needs: a range scan over one timestamp (benchmark points) and point
// lookups by (timestamp, oid) (HWMT and the extension phases).
package relational

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page size of the engine.
const PageSize = 4096

// pager reads pages of a read-only file through an LRU buffer pool. Pages
// are never modified, so a returned slice stays valid after eviction and
// readers may share it.
type pager struct {
	mu        sync.Mutex
	f         *os.File
	numPages  uint32
	cache     map[uint32]*list.Element
	lru       *list.List // front = most recently used
	cacheCap  int
	pageReads int64 // physical page reads (cache misses)
}

type cacheEntry struct {
	id   uint32
	data []byte
}

func newPager(f *os.File, cachePages int) (*pager, error) {
	if cachePages < 4 {
		cachePages = 4
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return &pager{
		f:        f,
		numPages: uint32(st.Size() / PageSize),
		cache:    make(map[uint32]*list.Element),
		lru:      list.New(),
		cacheCap: cachePages,
	}, nil
}

// read returns the contents of page id. The slice is shared with the
// buffer pool and must not be modified.
func (p *pager) read(id uint32) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.numPages {
		return nil, fmt.Errorf("relational: page id %d out of range (%d pages)", id, p.numPages)
	}
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil
	}
	data := make([]byte, PageSize)
	if _, err := p.f.ReadAt(data, int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("relational: read page %d: %w", id, err)
	}
	p.pageReads++
	p.cache[id] = p.lru.PushFront(&cacheEntry{id: id, data: data})
	if p.lru.Len() > p.cacheCap {
		tail := p.lru.Back()
		p.lru.Remove(tail)
		delete(p.cache, tail.Value.(*cacheEntry).id)
	}
	return data, nil
}

// reads returns the number of physical page reads so far.
func (p *pager) reads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pageReads
}

// --- little helpers shared by the node encodings -----------------------

func putU16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }
func getU16(b []byte, off int) uint16    { return binary.LittleEndian.Uint16(b[off:]) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off:]) }
