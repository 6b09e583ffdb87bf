package archive

// Retention is a watermark. Expire(before) raises the watermark META keeps
// (ExpiredBefore) in the one META write it makes, and from then on every
// convoy whose End tick precedes the watermark is expired:
//
//   - query pages skip its index entries, judged by the End tick each
//     entry's locator carries, so no record is read to reject one;
//   - indexRecord writes no entry for it when the log is indexed again;
//   - each index's lsm Options.Drop (Archive.expired) leaves its entries
//     out whenever a flush or compaction writes that index's oldest run,
//     which is what gives their space back.
//
// The log is append-only and is not touched, and no index entry is
// written or deleted, so an expiry has no intermediate state for a crash
// to leave behind: META holds the old watermark or the new one. The
// watermark in memory, which pages and Drop read, is raised only after the
// META write has succeeded, so garbage collection never runs ahead of META:
// no entry is reclaimed that a reopen after a crash, or after a failed
// write, would still serve. Sequence numbers are log positions and never
// change, so query cursors stay valid across an expiry.

import (
	"errors"
	"math"

	"repro/internal/storage"
)

// Expire expires every archived convoy whose End tick precedes before.
// The watermark is durable and monotonic: a before at or below a previous
// call's is a no-op, and records arriving later with End below the
// watermark are not indexed (see indexRecord). Query pages in flight are
// not waited for: each reads a snapshot and a watermark taken when it
// began. Expire reads no log record and writes no index entry. Returns the
// number of convoys expired.
func (a *Archive) Expire(before int32) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, errors.New("archive: closed")
	}
	prev := a.expiredBefore.Load()
	if before <= prev {
		return 0, nil
	}
	// The time index is keyed by (End, seq), so the convoys this call
	// expires are its entries from the old watermark up to the new one.
	// Entries below the old watermark, not yet reclaimed, are expired
	// already.
	var n int64
	err := a.timeIdx.Scan(storage.EncodeKey(prev, math.MinInt32), func(k, _ []byte) bool {
		if end, _ := storage.DecodeKey(k); end >= before {
			return false
		}
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	a.live -= n
	if err := a.flushLocked(before); err != nil {
		a.live += n
		return 0, err
	}
	a.expiredBefore.Store(before)
	a.expiredTotal += n
	return n, nil
}

// expired is the indexes' lsm Options.Drop: an entry whose convoy ended
// before the watermark is left out of the oldest run a flush or compaction
// writes.
func (a *Archive) expired(_, val []byte) bool {
	return decodeLocator(val).end < a.expiredBefore.Load()
}
