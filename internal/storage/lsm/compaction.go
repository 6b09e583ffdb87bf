package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/storage/durable"
)

// Background compaction. Flushes only append runs; when the run count
// exceeds Options.MaxTables the write path kicks a dedicated goroutine,
// which merges a window of adjacent runs OFF the write path: the input
// tables are snapshotted under db.mu, the merge itself runs without the
// lock (sstables are immutable and read with positioned I/O), and the
// result is swapped in — and committed to the manifest — under the lock at
// the end. PutKV latency therefore no longer cliffs when MaxTables trips.
//
// Policy (size-tiered): merge the cheapest contiguous window of
// len(tables)-MaxTables+1 adjacent runs, so one compaction restores the
// invariant. Windows must be contiguous in age order — merging runs around
// a survivor could resurrect values the survivor shadows. Tombstones are
// dropped only when the window includes the oldest run (nothing older left
// to shadow); otherwise they are carried into the output.

// compactState carries the goroutine coordination handles.
type compactState struct {
	kick chan struct{} // buffered(1): write path signals "over threshold"
	quit chan struct{} // closed by Close
	done chan struct{} // closed when the loop exits
}

func (db *DB) startCompactor() {
	db.compact = compactState{
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go db.compactLoop()
}

// kickCompact nudges the compactor without blocking the write path.
func (db *DB) kickCompact() {
	select {
	case db.compact.kick <- struct{}{}:
	default:
	}
}

func (db *DB) compactLoop() {
	defer close(db.compact.done)
	for {
		select {
		case <-db.compact.quit:
			return
		case <-db.compact.kick:
		}
		if db.runCompactions() {
			return // simulated crash: the "process" is dead
		}
	}
}

// runCompactions merges until the run count is back under MaxTables. It
// reports whether a test-injected crash fired (in which case the compactor
// must stop dead, like the process it stands in for).
func (db *DB) runCompactions() (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == durable.ErrSimulatedCrash {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	for {
		progressed, err := db.compactOnce(false)
		if err != nil || !progressed {
			// On error: the staged output was dropped, the old tables keep
			// serving, and the next kick retries.
			return false
		}
	}
}

// compactOnce performs one merge. With full set it merges every run into
// one (the manual Compact path, which also GCs all tombstones); otherwise
// it applies the size-tiered policy and does nothing when the run count is
// within bounds. It reports whether a merge happened.
func (db *DB) compactOnce(full bool) (bool, error) {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	inputs, dropTombs, path, ok := db.pickCompaction(full)
	if !ok {
		return false, nil
	}
	// pickCompaction ref'd the inputs for the duration of the merge; the
	// files outlive any concurrent retirement until these drop.
	release := func() {
		for _, t := range inputs {
			t.unref()
		}
	}

	// Merge without db.mu: inputs are immutable, pinned by the refs above,
	// and compactions are serialised by compactMu.
	its := make([]kvIterator, len(inputs))
	mergeEnv := &readEnv{io: &db.stats} // cache-less: one-shot merge reads
	for i, t := range inputs {
		its[i] = t.iterator(0, mergeEnv)
	}
	if err := writeSSTable(path, newMergeIter(its), dropTombs); err != nil {
		release()
		return false, err
	}
	durable.Crash("compact.output-written")
	nt, err := openSSTable(path)
	if err != nil {
		os.Remove(path)
		release()
		return false, err
	}
	if err := db.swapCompacted(inputs, nt); err != nil {
		nt.close()
		os.Remove(path)
		release()
		return false, err
	}
	// The list references were dropped by swapCompacted with remove set;
	// releasing the merge references lets the last holder (a draining
	// snapshot, or this call) close and unlink the input files.
	release()
	return true, nil
}

// pickCompaction chooses the input window under db.mu and allocates the
// output file name. ok is false when there is nothing to do.
func (db *DB) pickCompaction(full bool) (inputs []*sstable, dropTombs bool, path string, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || len(db.tables) < 2 {
		return nil, false, "", false
	}
	if full {
		inputs = append(inputs, db.tables...)
		dropTombs = true
	} else {
		if len(db.tables) <= db.opts.MaxTables {
			return nil, false, "", false
		}
		w := len(db.tables) - db.opts.MaxTables + 1
		if w < 2 {
			w = 2
		}
		// Cheapest contiguous window by record count (proxy for bytes).
		best, bestCost := 0, uint64(0)
		for i := 0; i+w <= len(db.tables); i++ {
			var cost uint64
			for _, t := range db.tables[i : i+w] {
				cost += t.count
			}
			if i == 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		inputs = append(inputs, db.tables[best:best+w]...)
		dropTombs = best == 0
	}
	// Pin the inputs for the merge: only a holder of the list reference may
	// clone references, and we hold db.mu here.
	for _, t := range inputs {
		t.ref()
	}
	path = filepath.Join(db.dir, tableName(db.seq))
	db.seq++
	return inputs, dropTombs, path, true
}

// swapCompacted replaces the input window with the merged table and commits
// the new table list to the manifest, all under db.mu. An empty output
// (every record was a GC'd tombstone) retires the inputs without a
// replacement.
func (db *DB) swapCompacted(inputs []*sstable, nt *sstable) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("lsm: db closed during compaction")
	}
	pos := -1
	for i := range db.tables {
		if db.tables[i] == inputs[0] {
			pos = i
			break
		}
	}
	if pos < 0 || pos+len(inputs) > len(db.tables) {
		return fmt.Errorf("lsm: compaction inputs vanished")
	}
	for i, in := range inputs {
		if db.tables[pos+i] != in {
			return fmt.Errorf("lsm: compaction inputs no longer adjacent")
		}
	}
	old := db.tables
	merged := make([]*sstable, 0, len(old)-len(inputs)+1)
	merged = append(merged, old[:pos]...)
	if nt.count > 0 {
		merged = append(merged, nt)
	}
	merged = append(merged, old[pos+len(inputs):]...)
	db.tables = merged
	if err := db.writeManifest(); err != nil {
		db.tables = old
		return err
	}
	durable.Crash("compact.manifest-committed")
	if nt.count == 0 {
		nt.close()
		os.Remove(nt.path)
	}
	// Drop the list references; each input file is closed and unlinked by
	// whichever holder — this compaction's merge ref, or the last snapshot
	// still reading it — drains last. The new manifest no longer names the
	// inputs, so a crash before the deferred unlink leaves only orphans
	// that sweepOrphans removes at next Open. Evict their blocks from the
	// shared cache eagerly rather than waiting for the clock to cycle.
	for _, t := range inputs {
		db.cache.dropTable(t.id)
		t.retire(true)
	}
	return nil
}

// waitCompactions blocks until no compaction is pending or in flight (test
// and benchmark synchronisation).
func (db *DB) waitCompactions() {
	for {
		db.compactMu.Lock()
		db.mu.Lock()
		pending := !db.closed && len(db.tables) > db.opts.MaxTables && len(db.tables) > 1
		db.mu.Unlock()
		db.compactMu.Unlock()
		if !pending {
			return
		}
		db.kickCompact()
		time.Sleep(200 * time.Microsecond)
	}
}
