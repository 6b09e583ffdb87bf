// Package lsm implements the paper's k2-LSMT storage variant: a
// log-structured merge-tree (O'Neil et al.) keyed by the composite
// (timestamp, oid) with the point coordinates as value (§5.2).
//
// A dataset is written once, by WriteDataset, as one immutable SSTable:
// sorted data blocks plus a block index (sstable.go). Live writes (PutKV) go to
// the memtable, a sorted run that readers share plus the writer's unsorted
// tail (memtable.go); when the memtable exceeds its budget it is flushed
// to an SSTable. A background size-tiered compactor folds tables together
// when too many runs accumulate, off the write path. Nothing is deleted,
// as in the paper's store: a record leaves only when a flush or compaction
// that writes the oldest run drops it at its caller's request
// (Options.Drop). Benchmark-point reads are range scans (all keys of one
// timestamp are co-located, one positioning per run); HWMT reads are one
// Fetch per (tick, sorted object set), a forward walk that loads each
// block it needs once. Those are the only two reads:
// there is no point get, and so no bloom filter. A directory written by an
// earlier build holds tables of an older format (K2S2, K2S3), which Open
// refuses with an error naming it; rewrite such a dataset with
// WriteDataset.
//
// Crash model: what the MANIFEST names is the database. It lists the live
// tables and is the sole commit point, written via fsynced tmp file + rename
// + directory fsync after the fsynced sstable it adds. There is no
// write-ahead log: Flush is the one durability barrier. A write is durable
// once a Flush that covers it — an explicit one, the memtable-full flush
// inside PutKV, or Close's — has returned; a kill loses exactly the
// memtable. Both consumers below can afford that: the miners' stores
// never touch the memtable — WriteDataset (build.go) writes a dataset as
// one bottom-level run committed by one manifest write — and the archive
// re-derives every index entry past its last flush from the fsynced convoy
// log. Files the manifest does not reference are swept on Open.
//
// A record has one shape from memtable to disk: an 8-byte key and a
// 16-byte value. The key travels as its big-endian uint64 reading
// (keyWord), which every layer — memtable, merge, writer, block index,
// block search — compares; bytes appear only in the sstable encoding and
// the exported PutKV/Scan/Options.Drop.
//
// The engine serves two consumers. As a storage.Store (WriteDataset, then
// Snapshot/Fetch) it holds trajectory points for the miners, exactly the
// paper's role. As a raw ordered key/value store (PutKV/Scan) it
// backs the secondary indexes of the historical convoy archive
// (internal/storage/archive): any
// fixed-width 8-byte key whose lexicographic order matches the caller's
// logical order — the archive packs (time, seq), (oid, seq) and
// (size, seq) pairs through storage.EncodeKey — maps to a 16-byte value,
// and Scan provides the merged, budget-boundable range reads the query
// endpoints page through.
package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/durable"
)

// Options tunes the engine.
type Options struct {
	// MemtableBytes is the flush threshold (default 4 MiB): every buffered
	// write, overwrites included, is charged 48 B, which bounds the
	// memtable's heap, the seal's sort scratch included (see writeCharge).
	MemtableBytes int
	// MaxTables is the run count above which the background compactor
	// merges runs (default 6). The floor is 1: "always compact back to a
	// single run". Zero (or negative) selects the default.
	MaxTables int
	// BlockCacheBytes bounds the shared data-block cache (default 4 MiB).
	BlockCacheBytes int
	// Drop, when set, is asked about every record a flush or compaction
	// writes into the oldest run, and the records it reports true for are
	// left out: it is how a caller reclaims records it no longer serves.
	// No other write asks it, since a record left out above an older run
	// would uncover that run's version of its key (see dropper). It runs on
	// the compactor's goroutine as well as the writer's; key and val are
	// valid only during the call.
	Drop func(key, val []byte) bool
}

func (o *Options) withDefaults() Options {
	out := Options{MemtableBytes: 4 << 20, MaxTables: 6, BlockCacheBytes: 4 << 20}
	if o != nil {
		out.Drop = o.Drop
		if o.MemtableBytes > 0 {
			out.MemtableBytes = o.MemtableBytes
		}
		if o.MaxTables > 0 {
			out.MaxTables = o.MaxTables
		}
		if o.BlockCacheBytes > 0 {
			out.BlockCacheBytes = o.BlockCacheBytes
		}
	}
	return out
}

// DB is the LSM-tree database. It implements storage.Store.
//
// Locking: mu is a read/write lock, but reads hold it only for snapshot
// acquisition — a pointer copy of the COW table list and the memtable's
// run plus a refcount bump per table, and, when writes are buffered, the
// seal that folds them into a fresh run under the write lock
// (snapshot.go). All read I/O (block reads, merge scans) happens
// outside the lock, so a slow query page no longer stalls ingest, other
// queries, or the compactor's swap. Writers (PutKV, flush, compaction
// swap, Close) take the write lock and publish new state by replacing
// db.tables and the memtable's run, never mutating the slices a snapshot
// may hold.
type DB struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	mem    memtable
	tables []*sstable // oldest first; later tables shadow earlier ones; COW
	seq    int
	ts, te int32
	stats  storage.IOStats
	closed bool

	// Shared lock-free read-path state: the sharded block cache, the env
	// that hands it and the I/O counters to block reads, and the
	// live-snapshot gauge.
	cache         *blockCache
	env           readEnv
	liveSnapshots atomic.Int64

	// compactMu serialises compactions (background loop and manual
	// Compact); it is always acquired before db.mu, never inside it.
	compactMu sync.Mutex
	compact   compactState
}

// Open opens (or creates) an LSM database in dir: the tables the manifest
// names, and nothing else. Opening a cleanly closed directory writes
// nothing.
func Open(dir string, opts *Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: mkdir: %w", err)
	}
	db := &DB{dir: dir, opts: opts.withDefaults(), ts: 0, te: -1}
	db.cache = newBlockCache(db.opts.BlockCacheBytes)
	db.env = readEnv{cache: db.cache, io: &db.stats}
	if err := db.load(); err != nil {
		for _, t := range db.tables {
			t.close()
		}
		return nil, err
	}
	sweepOrphans(db.dir, db.tableNames())
	db.startCompactor()
	if len(db.tables) > db.opts.MaxTables {
		db.kickCompact()
	}
	return db, nil
}

// load opens the manifest's tables and recomputes the time bounds from
// them. On error the tables opened so far are left in db.tables for Open
// to close.
func (db *DB) load() error {
	if err := db.loadManifest(); err != nil {
		return err
	}
	for _, t := range db.tables {
		if len(t.index) > 0 {
			db.noteT(wordTime(t.index[0].firstKey))
			// Last key requires reading the last block; cheap and done once.
			lb, err := t.readBlock(len(t.index)-1, nil)
			if err != nil {
				return err
			}
			lastRec := lb[(int(t.index[len(t.index)-1].count)-1)*recSize:]
			lt, _ := storage.DecodeKey(lastRec[:storage.KeySize])
			db.noteT(lt)
		}
	}
	return nil
}

func (db *DB) noteT(t int32) {
	if db.te < db.ts { // empty
		db.ts, db.te = t, t
		return
	}
	if t < db.ts {
		db.ts = t
	}
	if t > db.te {
		db.te = t
	}
}

// PutKV inserts one raw record: an 8-byte order-preserving key mapping to a
// 16-byte value. It is the live write path, the one the archive's secondary
// indexes use to store record locators; a miner's dataset is written by
// WriteDataset instead. Writing the same key again overwrites the value.
func (db *DB) PutKV(key [storage.KeySize]byte, val [storage.ValueSize]byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	k := binary.BigEndian.Uint64(key[:])
	db.mem.put(k, val)
	db.noteT(wordTime(k))
	if db.mem.bytes() >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

// Flush writes the memtable out as a run. It is the durability barrier:
// every write that returned before Flush was called survives a kill once
// Flush has returned.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

// flushLocked turns the memtable into a run: seal it, write the (fsynced)
// sstable, commit the manifest that names it, empty the memtable. A crash
// before the commit leaves the old manifest and an orphan sstable that the
// next Open sweeps; a crash after it leaves the new run live.
func (db *DB) flushLocked() error {
	if db.closed {
		return errClosed
	}
	run := db.mem.sealed()
	if len(run) == 0 {
		return nil
	}
	path := filepath.Join(db.dir, tableName(db.seq))
	db.seq++
	if err := writeSSTable(path, run.iterator(0), db.dropper(len(db.tables) == 0)); err != nil {
		return err
	}
	t, err := openSSTable(path)
	if err != nil {
		os.Remove(path)
		return err
	}
	durable.Crash("flush.sstable-written")
	if t.count == 0 {
		// Options.Drop dropped every record: the table list, and so the
		// manifest, does not change.
		t.close()
		os.Remove(path)
	} else {
		db.tables = append(db.tables, t)
		if err := db.writeManifest(); err != nil {
			db.tables = db.tables[:len(db.tables)-1]
			t.close()
			os.Remove(path)
			return err
		}
		durable.Crash("flush.manifest-committed")
	}
	db.mem = memtable{next: db.mem.next} // the next tail keeps this one's size
	if len(db.tables) > db.opts.MaxTables {
		db.kickCompact()
	}
	return nil
}

// dropper returns the Options.Drop a write applies: the caller's predicate
// when the write's output is the oldest run, with nothing older beneath
// it, and nil otherwise. A record left out of any other output would
// uncover the version of its key an older run holds.
func (db *DB) dropper(oldest bool) func(key, val []byte) bool {
	if !oldest {
		return nil
	}
	return db.opts.Drop
}

// Compact synchronously merges all runs into one, applying Options.Drop
// (the serving path compacts in background).
func (db *DB) Compact() error {
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return errClosed
	}
	_, err := db.compactOnce(true)
	return err
}

// TimeRange implements storage.Store.
func (db *DB) TimeRange() (int32, int32) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ts, db.te
}

// Stats implements storage.Store.
func (db *DB) Stats() *storage.IOStats { return &db.stats }

// Snapshot implements storage.Store: one merged range scan across runs over
// the key prefix of timestamp t, against a pinned snapshot (lock-free I/O).
func (db *DB) Snapshot(t int32) ([]model.ObjPos, error) {
	s, err := db.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	defer s.Release()
	if s.te < s.ts || t < s.ts || t > s.te {
		return nil, nil
	}
	var out []model.ObjPos
	err = s.scan(keyWord(t, math.MinInt32), func(k uint64, v []byte) bool {
		if wordTime(k) != t {
			return false
		}
		x, y := storage.DecodeValue(v)
		out = append(out, model.ObjPos{OID: wordOID(k), X: x, Y: y})
		return true
	})
	if err != nil {
		return nil, err
	}
	db.stats.AddScan(len(out))
	return out, nil
}

// Scan calls fn for every record with key ≥ start, in ascending key order,
// merged across the memtable and every on-disk run (newest version of a
// key wins), until fn returns false or the keyspace is exhausted. The key and value
// slices passed to fn are only valid during the call. The scan runs against
// a snapshot with no lock held, so fn may block or call back into the DB;
// callers still bound the walk (the archive's query budget). Callers that
// page repeatedly should AcquireSnapshot once and scan it directly.
func (db *DB) Scan(start [storage.KeySize]byte, fn func(key, val []byte) bool) error {
	s, err := db.AcquireSnapshot()
	if err != nil {
		return err
	}
	defer s.Release()
	return s.Scan(start, fn)
}

// Fetch implements storage.Store: one forward walk over the requested keys,
// all against one snapshot. oids is sorted and a tick's keys are
// contiguous, so each run keeps a walkCursor on the block it last loaded
// and answers the next key from it; it loads a block only when the walk
// leaves the held one. Per key the memtable is asked first, then the runs
// newest → oldest, and the first that holds the key decides: the shadowing
// rule Scan's merge applies. Coordinates
// are decoded straight from the shared block, not copied.
func (db *DB) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	if len(oids) == 0 {
		return nil, nil
	}
	s, err := db.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	defer s.Release()
	var buf [8]walkCursor
	curs := buf[:0]
	for i := len(s.tables) - 1; i >= 0; i-- {
		curs = append(curs, walkCursor{t: s.tables[i]})
	}
	out := make([]model.ObjPos, 0, len(oids))
	for _, oid := range oids {
		key := keyWord(t, oid)
		val := s.mem.get(key)
		for i := 0; val == nil && i < len(curs); i++ {
			rec, err := curs[i].find(key, &db.env)
			if err != nil {
				return nil, err
			}
			if rec != nil {
				val = rec[storage.KeySize:]
			}
		}
		if val == nil {
			continue
		}
		x, y := storage.DecodeValue(val)
		out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
	}
	db.stats.AddPointQueries(len(oids), len(out))
	db.stats.AddScanned(len(out))
	return out, nil
}

// Close flushes the memtable, stops the compactor and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	// The final flush runs before the DB is marked closed: from then on
	// every entry point of flushLocked refuses.
	err := db.flushLocked()
	db.closed = true
	db.mu.Unlock()
	// Stop the compactor before touching the tables: an in-flight merge
	// sees closed at swap time, discards its output and exits.
	if db.compact.quit != nil {
		close(db.compact.quit)
		<-db.compact.done
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Drop the table-list references. Files close when the last snapshot
	// drains (immediately, when none are live) and stay on disk — the
	// manifest still names them for the next Open.
	for _, t := range db.tables {
		t.retire(false)
	}
	db.tables = nil
	return err
}

// Abandon simulates a process kill for crash tests of packages built on
// top of lsm (the archive's crash fuzz uses it): every file handle is
// closed and the memtable is dropped unflushed, exactly like abandon. The
// DB must not be used afterwards.
func (db *DB) Abandon() { db.abandon() }

// abandon simulates a process kill for crash tests: the compactor is
// stopped and every file handle is closed without the flush Close would
// run, so whatever is only in the memtable is lost, as in a real crash.
// The DB must not be used afterwards.
func (db *DB) abandon() {
	if db.compact.quit != nil {
		select {
		case <-db.compact.quit:
		default:
			close(db.compact.quit)
		}
		<-db.compact.done
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	for _, t := range db.tables {
		t.f.Close()
	}
}

// NumTables returns the current number of on-disk runs (for tests).
func (db *DB) NumTables() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.tables)
}

// mergeIter merges several sorted iterators; on duplicate keys the source
// with the LARGEST slice index wins (callers order sources oldest→newest,
// memtable last).
type mergeIter struct {
	srcs []kvIterator
	cur  int // index of current winning source, -1 when exhausted
}

func newMergeIter(srcs []kvIterator) *mergeIter {
	m := &mergeIter{srcs: srcs, cur: -1}
	m.advance()
	return m
}

// advance selects the smallest current key (ties → newest source) after
// first skipping, in all older sources, keys equal to the previous winner.
func (m *mergeIter) advance() {
	m.cur = -1
	var best uint64
	for i, it := range m.srcs {
		if it == nil || !it.valid() {
			continue
		}
		// Sources are visited oldest first, so a tie goes to the later one.
		if k := it.key(); m.cur < 0 || k <= best {
			best = k
			m.cur = i
		}
	}
	if m.cur < 0 {
		return
	}
	// Skip duplicates of the winning key in all other sources so that next()
	// never yields the same key twice.
	for i, it := range m.srcs {
		if i == m.cur || it == nil {
			continue
		}
		for it.valid() && it.key() == best {
			it.next()
		}
	}
}

func (m *mergeIter) valid() bool   { return m.cur >= 0 }
func (m *mergeIter) key() uint64   { return m.srcs[m.cur].key() }
func (m *mergeIter) value() []byte { return m.srcs[m.cur].value() }
func (m *mergeIter) next() {
	m.srcs[m.cur].next()
	m.advance()
}

// err returns the first error any fallible source hit, even after it
// yielded partial results.
func (m *mergeIter) err() error {
	for _, it := range m.srcs {
		if s, ok := it.(faultIterator); ok {
			if err := s.srcErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// srcErr lets nested mergeIters propagate source errors.
func (m *mergeIter) srcErr() error { return m.err() }
