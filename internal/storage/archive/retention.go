package archive

// Time-based retention: Expire(before) removes every indexed convoy whose
// End tick precedes before from all three secondary indexes. The log is
// append-only and is not touched — offsets never move and sequence numbers
// never change, so an expiry is invisible to everything except the records
// it removes, and what it reclaims is index space (once the tombstones
// reach the bottom LSM level).
//
// The protocol:
//
//  1. Commit the watermark. The victims — the time index's entries below
//     before — are counted, expiredBefore is raised, and flushLocked writes
//     the watermark and the reduced live count to META (fsynced) while the
//     indexes still hold every victim. From here on records below the
//     watermark are not indexed, and a crash leaves an "expiry pending"
//     marker: the time index's oldest entry sits below the watermark, which
//     open detects and repairs by re-running step 2.
//  2. Tombstone the victims, found by walking the time index below the
//     watermark. The index databases keep no log, so after a crash each
//     holds exactly what its last flush wrote — a prefix of its
//     tombstones, since a full memtable flushes itself. The ordering
//     argument is otherwise what it always was: the time index is what
//     finds the victims again, so its tombstones are written only after
//     the other two indexes' are flushed to SSTables. Whatever prefix of
//     the time index's tombstones survives, the victims it no longer lists
//     are gone from the other two indexes as well.
//  3. flushLocked makes the tombstones durable.

import (
	"errors"
	"math"
	"os"

	"repro/internal/storage"
	"repro/internal/storage/durable"
)

// Expire removes every archived convoy whose End tick precedes before.
// The watermark is durable and monotonic: a before at or below a previous
// call's is a no-op, and records arriving later with End below the
// watermark are not indexed (see indexRecord). Query pages in flight are
// not waited for: each reads a snapshot taken before the expiry, which
// keeps listing the victims until the page ends. Returns the number of
// convoys removed.
func (a *Archive) Expire(before int32) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, errors.New("archive: closed")
	}
	if before <= a.expiredBefore {
		return 0, nil
	}
	victims, err := a.expired(before)
	if err != nil {
		return 0, err
	}
	a.expiredBefore = before
	a.live -= int64(len(victims))
	// Watermark first, tombstones second: once META holds the watermark,
	// every crash state is repaired by re-applying it.
	if err := a.flushLocked(); err != nil {
		return 0, err
	}
	durable.Crash("expire.watermark-committed")
	if err := a.applyExpireLocked(); err != nil {
		return 0, err
	}
	a.expiredTotal += int64(len(victims))
	return int64(len(victims)), nil
}

// victim is one time-index entry below the watermark.
type victim struct {
	end, seq int32
	off      int64
}

// expired lists the time index's entries with End < before. The index is
// keyed by (End, seq), so they are its head.
func (a *Archive) expired(before int32) ([]victim, error) {
	var out []victim
	err := a.timeIdx.Scan(storage.EncodeKey(math.MinInt32, math.MinInt32), func(k, v []byte) bool {
		end, seq := storage.DecodeKey(k)
		if end >= before {
			return false
		}
		off, _, _ := decodeLocator(v)
		out = append(out, victim{end: end, seq: seq, off: off})
		return true
	})
	return out, err
}

// applyExpireLocked makes the indexes match the committed watermark: every
// record with End < expiredBefore leaves all three. It is idempotent — open
// calls it to finish an expiry a crash interrupted — and a no-op when no
// entry is below the watermark.
func (a *Archive) applyExpireLocked() error {
	victims, err := a.expired(a.expiredBefore)
	if err != nil || len(victims) == 0 {
		return err
	}
	f, err := os.Open(a.path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := storage.NewConvoyReader(f)
	for _, v := range victims {
		// The member list lives in the record, not in the time index.
		rec, err := cr.ReadAt(v.off)
		if err != nil {
			return err
		}
		objs := rec.Convoy.Objs
		if err := a.sizeIdx.DeleteKV(storage.EncodeKey(int32(len(objs)), v.seq)); err != nil {
			return err
		}
		for _, oid := range objs {
			if err := a.objIdx.DeleteKV(storage.EncodeKey(oid, v.seq)); err != nil {
				return err
			}
		}
	}
	if err := a.sizeIdx.Flush(); err != nil {
		return err
	}
	if err := a.objIdx.Flush(); err != nil {
		return err
	}
	for _, v := range victims {
		if err := a.timeIdx.DeleteKV(storage.EncodeKey(v.end, v.seq)); err != nil {
			return err
		}
	}
	durable.Crash("expire.indexes-updated")
	return a.flushLocked()
}
