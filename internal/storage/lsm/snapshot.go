package lsm

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/storage"
)

// Snapshot is the database as it was when the snapshot was taken. It is
// acquired in O(tables) under a brief lock and then read entirely
// lock-free: the table list is copy-on-write (writers publish a new slice,
// never mutate a shared one), each referenced sstable is pinned by a
// refcount so compaction and Close cannot unlink or close it mid-read, and
// the memtable's run is never modified once published. Writes made after
// acquisition — puts, flushes, compactions — are invisible to it
// (snapshot isolation).
//
// Snapshots are cheap but pin disk space: tables retired while referenced
// are unlinked only when the last snapshot releases. Always Release — it is
// idempotent and nil-safe.
type Snapshot struct {
	db       *DB
	mem      memRun
	tables   []*sstable // oldest first, as in DB.tables
	ts, te   int32
	released atomic.Bool
}

var errClosed = errors.New("lsm: db closed")

// AcquireSnapshot pins the current read view. The caller must Release it.
// Writes buffered since the last snapshot are sealed into the memtable's
// run first, under the write lock; with none, a read lock suffices.
func (db *DB) AcquireSnapshot() (*Snapshot, error) {
	db.mu.RLock()
	if len(db.mem.tail) == 0 {
		defer db.mu.RUnlock()
		return db.snapshotLocked()
	}
	db.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mem.sealed()
	return db.snapshotLocked()
}

// snapshotLocked captures the view; db.mu is held and the tail is sealed.
func (db *DB) snapshotLocked() (*Snapshot, error) {
	if db.closed {
		return nil, errClosed
	}
	s := &Snapshot{db: db, mem: db.mem.run, tables: db.tables, ts: db.ts, te: db.te}
	for _, t := range s.tables {
		t.ref()
	}
	db.liveSnapshots.Add(1)
	return s, nil
}

// Release drops the snapshot's table pins. Idempotent; safe on nil.
func (s *Snapshot) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, t := range s.tables {
		t.unref()
	}
	s.db.liveSnapshots.Add(-1)
}

// Scan calls fn for every record with key ≥ start, in ascending key order,
// merged across the captured memtable and runs (newest version of a key
// wins), until fn returns false or the keyspace is exhausted. The key and value slices
// passed to fn are only valid during the call. No lock is held: fn may
// block, do I/O, or call back into the DB freely.
func (s *Snapshot) Scan(start [storage.KeySize]byte, fn func(key, val []byte) bool) error {
	var kb [storage.KeySize]byte
	return s.scan(binary.BigEndian.Uint64(start[:]), func(k uint64, v []byte) bool {
		binary.BigEndian.PutUint64(kb[:], k)
		return fn(kb[:], v)
	})
}

// scan is Scan over key words.
func (s *Snapshot) scan(start uint64, fn func(key uint64, val []byte) bool) error {
	its := make([]kvIterator, 0, len(s.tables)+1)
	for _, tab := range s.tables {
		its = append(its, tab.iterator(start, &s.db.env))
	}
	its = append(its, s.mem.iterator(start))
	merged := newMergeIter(its)
	for ; merged.valid(); merged.next() {
		s.db.stats.AddScanned(1)
		if !fn(merged.key(), merged.value()) {
			break
		}
	}
	return merged.err()
}

// NumTables returns the number of runs this snapshot pins (for tests).
func (s *Snapshot) NumTables() int { return len(s.tables) }
