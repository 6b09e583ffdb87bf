package lsm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/storage"
)

// SSTable layout (all integers little-endian):
//
//	data blocks : blockRecs × (key[8] | value[16] | meta[1]) each (last may
//	              be short); meta bit 0 marks a tombstone (value zeroed)
//	index block : numBlocks × (firstKey[8] | u64 offset | u32 count)
//	footer      : u64 indexOff | u32 numBlocks | u64 recordCount
//	              u64 tombCount | magic "K2S3"
//
// Records within and across blocks are sorted ascending by key and unique.
// The blocks are contiguous from offset 0 and the index follows the last
// of them, so the footer and index describe the whole file; openSSTable
// checks that they do before it trusts either.
const (
	blockRecs  = 170 // ≈4KB data blocks
	indexEntry = storage.KeySize + 8 + 4
	footerSize = 8 + 4 + 8 + 8 + 4

	recSize  = storage.RecordSize + 1 // key | value | meta byte
	tombFlag = 1                      // meta bit 0
)

// Format is the magic that ends every SSTable this build writes, and the
// only one it opens. It changes whenever the layout above does (K2S2 had a
// bloom filter between the index and the footer), so a store that persists
// SSTables can record it and tell indexes it cannot read.
const Format = "K2S3"

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
	f     *os.File
	path  string
	index []blockMeta
	count uint64 // all records, tombstones included
	tombs uint64 // tombstone records
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
		inBlock uint32
		off     uint64
		cur     blockMeta
		tombs   uint64
		rec     [recSize]byte
		count   uint64
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
		count++
		if inBlock == blockRecs {
			flushBlock()
		}
	}
	flushBlock()
	indexOff := off
	for _, bm := range idx {
		var ent [indexEntry]byte
		binary.BigEndian.PutUint64(ent[0:8], bm.firstKey)
		binary.LittleEndian.PutUint64(ent[8:16], bm.off)
		binary.LittleEndian.PutUint32(ent[16:20], bm.count)
		if _, err := w.Write(ent[:]); err != nil {
			return err
		}
	}
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], indexOff)
	binary.LittleEndian.PutUint32(footer[8:12], uint32(len(idx)))
	binary.LittleEndian.PutUint64(footer[12:20], count)
	binary.LittleEndian.PutUint64(footer[20:28], tombs)
	copy(footer[28:32], Format)
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

// openSSTable opens an existing table and loads its footer and block index
// (they are small); data blocks are read on demand. Neither is trusted
// before load has checked it against the file, so a truncated, corrupt or
// foreign file is an error here, not a huge allocation or an out-of-range
// read later.
func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	t := &sstable{f: f, path: path}
	if err := t.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: sstable %s: %w", filepath.Base(path), err)
	}
	t.id = nextTableID.Add(1)
	t.refs.Store(1)
	return t, nil
}

// load reads the footer and the block index and checks that they describe
// the file: the index ends at the footer, the blocks run contiguously from
// offset 0 up to the index, each holds 1…blockRecs records, their first
// keys strictly ascend, and the footer's counts agree with the index.
func (t *sstable) load() error {
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < footerSize {
		return errors.New("too small")
	}
	body := uint64(st.Size() - footerSize)
	var footer [footerSize]byte
	if _, err := t.f.ReadAt(footer[:], int64(body)); err != nil {
		return err
	}
	if magic := string(footer[footerSize-4:]); magic != Format {
		return fmt.Errorf("format %q, not %s: rewrite the dataset with WriteDataset", magic, Format)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	numBlocks := uint64(binary.LittleEndian.Uint32(footer[8:12]))
	t.count = binary.LittleEndian.Uint64(footer[12:20])
	t.tombs = binary.LittleEndian.Uint64(footer[20:28])
	if numBlocks*indexEntry > body || indexOff != body-numBlocks*indexEntry {
		return fmt.Errorf("an index of %d blocks at offset %d does not end at the footer (offset %d)", numBlocks, indexOff, body)
	}
	buf := make([]byte, numBlocks*indexEntry)
	if _, err := t.f.ReadAt(buf, int64(indexOff)); err != nil {
		return fmt.Errorf("read index: %w", err)
	}
	t.index = make([]blockMeta, numBlocks)
	var end, records uint64
	for i := range t.index {
		ent := buf[i*indexEntry:]
		bm := blockMeta{
			firstKey: binary.BigEndian.Uint64(ent[0:8]),
			off:      binary.LittleEndian.Uint64(ent[8:16]),
			count:    binary.LittleEndian.Uint32(ent[16:20]),
		}
		switch {
		case bm.off != end:
			return fmt.Errorf("block %d starts at offset %d, want %d: the blocks are not contiguous", i, bm.off, end)
		case bm.count < 1 || bm.count > blockRecs:
			return fmt.Errorf("block %d holds %d records, not 1…%d", i, bm.count, blockRecs)
		case i > 0 && bm.firstKey <= t.index[i-1].firstKey:
			return fmt.Errorf("block %d's first key %016x does not ascend", i, bm.firstKey)
		}
		t.index[i] = bm
		end += uint64(bm.count) * recSize
		records += uint64(bm.count)
	}
	if end != indexOff {
		return fmt.Errorf("the blocks end at offset %d, the index starts at %d", end, indexOff)
	}
	if records != t.count || t.tombs > t.count {
		return fmt.Errorf("the footer counts %d records (%d tombstones), the index %d", t.count, t.tombs, records)
	}
	return nil
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

// cachedBlock returns block bi through the shared block cache, reporting
// whether a physical read happened. Cached blocks are shared between
// goroutines and must be treated as read-only.
func (t *sstable) cachedBlock(bi int, cache *blockCache) (block []byte, phys bool, err error) {
	k := cacheKey{table: t.id, block: bi}
	if b, ok := cache.get(k); ok {
		return b, false, nil
	}
	b, err := t.readBlock(bi, nil)
	if err != nil {
		return nil, false, err
	}
	cache.put(k, b)
	return b, true, nil
}

// walkCursor is one table's position in a forward walk of point reads
// with ascending keys (DB.Fetch): the block it holds, the first key of the
// block after it, and where the next in-block search starts. A key below
// end is answered from the held block, with no index search or cache
// lookup; only a key at or past it loads a block. The last block's end is
// the largest word, so only that one key reloads the block it is already
// in.
type walkCursor struct {
	t     *sstable
	block []byte // nil until the first load
	end   uint64
	pos   int
}

// find returns key's record (key | value | meta) in the table, or nil when
// the table holds no version of it. The record aliases the block: the
// caller reads it and must not keep or modify it. Keys passed to
// successive calls must not descend. env must carry a cache and an IOStats.
func (c *walkCursor) find(k uint64, env *readEnv) ([]byte, error) {
	if c.block == nil || k >= c.end {
		bi := c.t.blockFor(k)
		if bi < 0 {
			return nil, nil
		}
		block, phys, err := c.t.cachedBlock(bi, env.cache)
		if err != nil {
			return nil, err
		}
		if phys {
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
	b, phys, err := it.t.cachedBlock(it.bi, it.env.cache)
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
