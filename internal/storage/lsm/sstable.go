package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/storage"
)

// SSTable layout (all integers little-endian):
//
//	data blocks : blockRecs × (key[8] | value[16] | meta[1]) each (last may
//	              be short); meta bit 0 marks a tombstone (value zeroed)
//	index block : numBlocks × (firstKey[8] | u64 offset | u32 count)
//	bloom block : bit array (tombstone keys included — a tombstone must be
//	              FOUND so it can shadow older runs)
//	footer      : u64 indexOff | u32 numBlocks | u64 bloomOff | u32 bloomLen
//	              u64 recordCount | u64 tombCount | magic "K2S2"
//
// Records within and across blocks are sorted ascending by key and unique.
const (
	blockRecs  = 170 // ≈4KB data blocks
	footerSize = 8 + 4 + 8 + 4 + 8 + 8 + 4
	sstMagic   = "K2S2"

	recSize  = storage.RecordSize + 1 // key | value | meta byte
	tombFlag = 1                      // meta bit 0
)

type blockMeta struct {
	firstKey uint64
	off      uint64
	count    uint32
}

// keyWord is the big-endian reading of storage.EncodeKey(t, oid): integer
// order is key order. wordTime and wordOID invert it.
func keyWord(t, oid int32) uint64 {
	return uint64(uint32(t)^1<<31)<<32 | uint64(uint32(oid)^1<<31)
}

func wordTime(k uint64) int32 { return int32(uint32(k>>32) ^ 1<<31) }
func wordOID(k uint64) int32  { return int32(uint32(k) ^ 1<<31) }

// sstable is an immutable on-disk run of sorted records. Its lifetime is
// refcounted: the DB's table list holds one reference, and every snapshot
// acquired while the table is listed holds another (snapshot.go). When the
// list owner retires the table (compaction swapped it out, or Close), the
// file is closed — and unlinked, if requested — only after the LAST
// reference drains, so a reader mid-scan never has its file yanked away. A
// crash between retire and the deferred unlink leaves an orphan file; the
// manifest does not reference it, and sweepOrphans removes it at next Open.
type sstable struct {
	f      *os.File
	path   string
	index  []blockMeta
	filter *bloom
	count  uint64 // all records, tombstones included
	tombs  uint64 // tombstone records
	// id is unique across every table opened by this process; it keys the
	// shared block cache so a retired table's blocks can never alias a
	// successor's.
	id uint64
	// refs counts owners: 1 for the DB's table list plus 1 per live
	// snapshot. The holder that drops it to 0 closes (and maybe unlinks)
	// the file.
	refs atomic.Int32
	// removeOnRelease asks the final unref to also unlink the file. Written
	// by the list owner before it drops the list reference; the atomic
	// decrement in unref orders that write before the final holder reads it.
	removeOnRelease bool
	// reads counts physical block reads for I/O accounting. Atomic: the
	// background compactor reads input tables without holding any DB lock
	// while snapshot readers touch the same tables.
	reads atomic.Int64
}

// nextTableID issues process-unique sstable ids for block-cache keying.
var nextTableID atomic.Uint64

// writeSSTable streams sorted (key, val, tomb) records from it into a new
// table file at path.
// When dropTombs is set, tombstone records are filtered out instead of
// written — only valid when the merge window includes the oldest run, i.e.
// there is no older version left for the tombstone to shadow.
func writeSSTable(path string, it kvIterator, dropTombs bool) (retErr error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: create sstable: %w", err)
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(path)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var (
		idx     []blockMeta
		keys    []uint64 // every written key, for the bloom filter
		inBlock uint32
		off     uint64
		cur     blockMeta
		tombs   uint64
		rec     [recSize]byte
	)
	flushBlock := func() {
		if inBlock == 0 {
			return
		}
		cur.count = inBlock
		idx = append(idx, cur)
		inBlock = 0
	}
	for first, prev := true, uint64(0); it.valid(); it.next() {
		k := it.key()
		if !first && k <= prev {
			return fmt.Errorf("lsm: sstable writer got key %016x after %016x: out of order", k, prev)
		}
		first, prev = false, k
		tomb := it.tomb()
		if tomb && dropTombs {
			continue
		}
		if inBlock == 0 {
			cur.firstKey = k
			cur.off = off
		}
		binary.BigEndian.PutUint64(rec[:storage.KeySize], k)
		copy(rec[storage.KeySize:storage.RecordSize], it.value())
		rec[storage.RecordSize] = 0
		if tomb {
			rec[storage.RecordSize] = tombFlag
			tombs++
		}
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
		off += recSize
		inBlock++
		keys = append(keys, k)
		if inBlock == blockRecs {
			flushBlock()
		}
	}
	flushBlock()
	indexOff := off
	for _, bm := range idx {
		var ent [storage.KeySize + 12]byte
		binary.BigEndian.PutUint64(ent[0:8], bm.firstKey)
		binary.LittleEndian.PutUint64(ent[8:16], bm.off)
		binary.LittleEndian.PutUint32(ent[16:20], bm.count)
		if _, err := w.Write(ent[:]); err != nil {
			return err
		}
		off += storage.KeySize + 12
	}
	filter := newBloom(len(keys))
	for _, k := range keys {
		filter.add(k)
	}
	bloomOff := off
	if _, err := w.Write(filter.bits); err != nil {
		return err
	}
	off += uint64(len(filter.bits))
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOff)
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(idx)))
	binary.LittleEndian.PutUint64(footer[12:20], bloomOff)
	binary.LittleEndian.PutUint32(footer[20:24], uint32(len(filter.bits)))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(keys)))
	binary.LittleEndian.PutUint64(footer[32:40], tombs)
	copy(footer[40:44], sstMagic)
	if _, err := w.Write(footer[:]); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// openSSTable maps an existing table: footer, index and bloom are loaded
// eagerly (they are small); data blocks are read on demand.
func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, errors.New("lsm: sstable too small")
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[40:44]) != sstMagic {
		f.Close()
		return nil, errors.New("lsm: bad sstable magic")
	}
	t := &sstable{f: f, path: path, id: nextTableID.Add(1)}
	t.refs.Store(1)
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	numBlocks := int(binary.LittleEndian.Uint32(footer[8:12]))
	bloomOff := binary.LittleEndian.Uint64(footer[12:20])
	bloomLen := int(binary.LittleEndian.Uint32(footer[20:24]))
	t.count = binary.LittleEndian.Uint64(footer[24:32])
	t.tombs = binary.LittleEndian.Uint64(footer[32:40])

	idxBuf := make([]byte, numBlocks*(storage.KeySize+12))
	if _, err := f.ReadAt(idxBuf, int64(indexOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read index: %w", err)
	}
	t.index = make([]blockMeta, numBlocks)
	for i := 0; i < numBlocks; i++ {
		rec := idxBuf[i*(storage.KeySize+12):]
		t.index[i].firstKey = binary.BigEndian.Uint64(rec[:storage.KeySize])
		t.index[i].off = binary.LittleEndian.Uint64(rec[storage.KeySize : storage.KeySize+8])
		t.index[i].count = binary.LittleEndian.Uint32(rec[storage.KeySize+8 : storage.KeySize+12])
	}
	bits := make([]byte, bloomLen)
	if _, err := f.ReadAt(bits, int64(bloomOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read bloom: %w", err)
	}
	t.filter = bloomFromBytes(bits)
	return t, nil
}

func (t *sstable) close() error { return t.f.Close() }

// ref takes an additional reference. Only a holder that already owns one
// (the DB's table list, under its lock) may hand out new references, so
// refs can never revive from zero.
func (t *sstable) ref() { t.refs.Add(1) }

// unref drops one reference; the holder that reaches zero closes the file
// and, when the table was retired with remove, unlinks it.
func (t *sstable) unref() {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.f.Close()
	if t.removeOnRelease {
		os.Remove(t.path)
	}
}

// retire drops the table-list reference, the one reference holders can
// clone. Caller must be the list owner (DB write lock held when delisting).
// With remove set the file is unlinked once the last snapshot drains —
// compaction inputs and retention victims; without it the file merely
// closes and stays on disk for the next Open — DB shutdown.
func (t *sstable) retire(remove bool) {
	t.removeOnRelease = remove
	t.unref()
}

// blockFor returns the index of the block that could contain key, or -1.
func (t *sstable) blockFor(key uint64) int {
	return sort.Search(len(t.index), func(i int) bool { return t.index[i].firstKey > key }) - 1
}

// readBlock loads block bi into buf.
func (t *sstable) readBlock(bi int, buf []byte) ([]byte, error) {
	bm := t.index[bi]
	need := int(bm.count) * recSize
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if _, err := t.f.ReadAt(buf, int64(bm.off)); err != nil {
		return nil, fmt.Errorf("lsm: read block %d: %w", bi, err)
	}
	t.reads.Add(1)
	return buf, nil
}

// cachedBlock returns block bi through the shared block cache (when env
// carries one), reporting whether a physical read happened. Cached blocks
// are shared between goroutines and must be treated as read-only.
func (t *sstable) cachedBlock(bi int, env *readEnv) (block []byte, phys bool, err error) {
	if env == nil || env.cache == nil {
		b, err := t.readBlock(bi, nil)
		return b, err == nil, err
	}
	k := cacheKey{table: t.id, block: bi}
	if b, ok := env.cache.get(k); ok {
		return b, false, nil
	}
	b, err := t.readBlock(bi, nil)
	if err != nil {
		return nil, false, err
	}
	env.cache.put(k, b)
	return b, true, nil
}

// get returns the entry for key in this table: val is nil when the key is
// absent, and tomb is set when the newest version here is a tombstone (the
// caller must stop searching older runs). Safe for concurrent use: all I/O
// is pread, the cache shards its own locking, and counters are atomic.
func (t *sstable) get(key uint64, env *readEnv) (val []byte, tomb bool, err error) {
	c := walkCursor{t: t}
	rec, err := c.find(key, env)
	if rec == nil || err != nil {
		return nil, false, err
	}
	if rec[storage.RecordSize]&tombFlag != 0 {
		return nil, true, nil
	}
	return append([]byte(nil), rec[storage.KeySize:storage.RecordSize]...), false, nil
}

// walkCursor is one table's position in a forward walk of point reads
// with ascending keys (DB.Fetch): the block it holds, the first key of the
// block after it, and where the next in-block search starts. A key below
// end is answered from the held block, with no bloom probe, index search
// or cache lookup; only a key at or past it probes the bloom and loads a
// block. The last block's end is the largest word, so only that one key
// reloads the block it is already in.
type walkCursor struct {
	t     *sstable
	block []byte // nil until the first load
	end   uint64
	pos   int
}

// find returns key's record (key | value | meta) in the table, or nil when
// the table holds no version of it. The record aliases the block: the
// caller reads it and must not keep or modify it. Keys passed to
// successive calls must not descend.
func (c *walkCursor) find(k uint64, env *readEnv) ([]byte, error) {
	if c.block == nil || k >= c.end {
		if !c.t.filter.mayContain(k) {
			if env != nil && env.rs != nil {
				env.rs.bloomHits.Add(1)
			}
			return nil, nil
		}
		if env != nil && env.rs != nil {
			env.rs.bloomMisses.Add(1)
		}
		bi := c.t.blockFor(k)
		if bi < 0 {
			return nil, nil
		}
		block, phys, err := c.t.cachedBlock(bi, env)
		if err != nil {
			return nil, err
		}
		if env != nil && env.io != nil && phys {
			env.io.AddSeeks(1)
			env.io.AddBytes(len(block))
		}
		c.block, c.end, c.pos = block, ^uint64(0), 0
		if bi+1 < len(c.t.index) {
			c.end = c.t.index[bi+1].firstKey
		}
	}
	c.pos = blockSearch(c.block, c.pos, k)
	if off := c.pos * recSize; off < len(c.block) && binary.BigEndian.Uint64(c.block[off:]) == k {
		return c.block[off : off+recSize], nil
	}
	return nil, nil
}

// blockSearch returns the index of the first record at or after lo in a
// data block whose key is ≥ k.
func blockSearch(block []byte, lo int, k uint64) int {
	hi := len(block) / recSize
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.BigEndian.Uint64(block[mid*recSize:]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// iterator returns an sstIter positioned at the first key ≥ start. With an
// env carrying a cache, block loads go through the shared block cache —
// query pages re-walk the same index ranges constantly, so their blocks
// stay hot; pass a cache-less env (or nil) for one-shot sequential reads
// like compaction merges, which keep the private-buffer fast path.
func (t *sstable) iterator(start uint64, env *readEnv) *sstIter {
	it := &sstIter{t: t, env: env}
	bi := t.blockFor(start)
	if bi < 0 {
		bi = 0
	}
	it.bi = bi
	if err := it.loadBlock(); err != nil {
		it.err = err
		return it
	}
	it.i = blockSearch(it.block, 0, start)
	it.skipExhausted()
	return it
}

// sstIter iterates one sstable in key order, tombstones included. When its
// env carries a cache the current block may be shared with other readers —
// the iterator only ever reads it. Without a cache it owns a private buffer
// reused across blocks.
type sstIter struct {
	t     *sstable
	env   *readEnv
	bi    int
	i     int
	block []byte
	buf   []byte // private reuse buffer for the uncached path
	err   error
}

func (it *sstIter) loadBlock() error {
	if it.bi >= len(it.t.index) {
		it.block = nil
		return nil
	}
	if it.env == nil || it.env.cache == nil {
		b, err := it.t.readBlock(it.bi, it.buf)
		if err != nil {
			return err
		}
		it.buf = b
		it.block = b
		if it.env != nil && it.env.io != nil {
			it.env.io.AddSeeks(1)
			it.env.io.AddBytes(len(b))
		}
		return nil
	}
	b, phys, err := it.t.cachedBlock(it.bi, it.env)
	if err != nil {
		return err
	}
	if phys && it.env.io != nil {
		it.env.io.AddSeeks(1)
		it.env.io.AddBytes(len(b))
	}
	it.block = b
	return nil
}

func (it *sstIter) skipExhausted() {
	for it.err == nil && it.block != nil && it.i >= int(it.t.index[it.bi].count) {
		it.bi++
		it.i = 0
		if it.bi >= len(it.t.index) {
			it.block = nil
			return
		}
		if err := it.loadBlock(); err != nil {
			it.err = err
			return
		}
	}
}

func (it *sstIter) valid() bool { return it.err == nil && it.block != nil }
func (it *sstIter) key() uint64 { return binary.BigEndian.Uint64(it.block[it.i*recSize:]) }
func (it *sstIter) value() []byte {
	off := it.i*recSize + storage.KeySize
	return it.block[off : off+storage.ValueSize]
}
func (it *sstIter) tomb() bool {
	return it.block[it.i*recSize+storage.RecordSize]&tombFlag != 0
}
func (it *sstIter) next() {
	it.i++
	it.skipExhausted()
}

// srcErr exposes the iterator's sticky error to mergeIter.
func (it *sstIter) srcErr() error { return it.err }

// kvIterator is the common iterator shape shared by memtable, sstable and
// merge iterators: key is the record's key word, value its 16 bytes (zero
// for a tombstone), and tomb reports whether the record is a deletion
// marker.
type kvIterator interface {
	valid() bool
	key() uint64
	value() []byte
	tomb() bool
	next()
}

// faultIterator is implemented by sources whose scans can fail mid-stream;
// mergeIter.err surfaces the first such error.
type faultIterator interface {
	srcErr() error
}

// check interface conformance at compile time.
var (
	_ kvIterator    = (*memIter)(nil)
	_ kvIterator    = (*sstIter)(nil)
	_ faultIterator = (*sstIter)(nil)
	_ io.Closer     = (*os.File)(nil)
)
