package archive

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/storage"
	"repro/internal/storage/lsm"
)

// Query carries the predicate and paging controls shared by the three
// query shapes. The zero value means: no predicate, DefaultLimit results,
// DefaultBudget index entries.
type Query struct {
	// MinSize keeps only convoys with at least this many objects.
	MinSize int
	// MinDur keeps only convoys lasting at least this many ticks.
	MinDur int
	// Feed, when non-empty, keeps only convoys mined from this feed.
	// Feed names live in the record, not the index, so this predicate
	// costs one record read per otherwise-matching entry.
	Feed string
	// Limit caps the records returned per page (default DefaultLimit,
	// capped at MaxLimit).
	Limit int
	// Budget caps the index entries examined per page (default
	// DefaultBudget, capped at MaxBudget). It bounds the work of a page
	// whose predicate rejects almost everything.
	Budget int
	// Cursor resumes a paginated query; the zero Cursor starts from the
	// beginning.
	Cursor Cursor
}

// Paging bounds. A page stops at whichever of limit/budget trips first and
// hands back a cursor.
const (
	DefaultLimit  = 100
	MaxLimit      = 1000
	DefaultBudget = 1 << 16
	MaxBudget     = 1 << 20
)

func (q Query) limit() int {
	switch {
	case q.Limit <= 0:
		return DefaultLimit
	case q.Limit > MaxLimit:
		return MaxLimit
	}
	return q.Limit
}

func (q Query) budget() int {
	switch {
	case q.Budget <= 0:
		return DefaultBudget
	case q.Budget > MaxBudget:
		return MaxBudget
	}
	return q.Budget
}

// Cursor is an opaque resume position: the first index key the next page
// will examine. Cursors are stable under concurrent archive appends — a
// page never re-examines keys below its cursor, so paging never yields a
// record twice; records archived after the first page began may or may not
// appear, depending on where their keys land.
type Cursor struct {
	key [storage.KeySize]byte
	set bool
}

// String encodes the cursor for transport (16 hex digits; empty for the
// zero cursor).
func (c Cursor) String() string {
	if !c.set {
		return ""
	}
	return hex.EncodeToString(c.key[:])
}

// IsZero reports whether the cursor is the start-of-query position.
func (c Cursor) IsZero() bool { return !c.set }

// ParseCursor decodes a cursor produced by Cursor.String. The empty string
// is the zero cursor.
func ParseCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != storage.KeySize {
		return Cursor{}, errors.New("archive: malformed cursor")
	}
	var c Cursor
	copy(c.key[:], b)
	c.set = true
	return c, nil
}

// Result is one page of query hits.
type Result struct {
	// Records are the matching convoys with their feeds, in index-key
	// order (time queries: by End; object/size queries: by archive order
	// within the key prefix).
	Records []storage.LoggedConvoy
	// Next resumes the query where this page stopped; only meaningful
	// when More.
	Next Cursor
	// More reports that the page stopped at its limit or budget with
	// index entries still unexamined.
	More bool
	// Scanned is the number of index entries this page examined.
	Scanned int
}

// QueryTime returns archived convoys whose lifespan [Start, End] overlaps
// the inclusive tick interval [from, to]. The time index is keyed by End,
// so the scan starts at End = from (anything ending earlier cannot
// overlap) and runs to the end of the index, rejecting entries whose
// derived Start exceeds to without touching the record.
func (a *Archive) QueryTime(from, to int32, q Query) (Result, error) {
	if from > to {
		return Result{}, fmt.Errorf("archive: empty interval [%d,%d]", from, to)
	}
	return a.scan(a.timeIdx, storage.EncodeKey(from, math.MinInt32), nil, q,
		func(end int32, loc locator) bool {
			return end-loc.dur+1 <= to
		},
		func(end int32, rec storage.LoggedConvoy) bool {
			return rec.Convoy.End == end
		})
}

// QueryObject returns archived convoys that contain the object oid, in
// archive order.
func (a *Archive) QueryObject(oid int32, q Query) (Result, error) {
	return a.scan(a.objIdx, storage.EncodeKey(oid, math.MinInt32),
		func(keyOID int32) bool { return keyOID == oid }, q, nil,
		func(keyOID int32, rec storage.LoggedConvoy) bool {
			return rec.Convoy.Objs.Contains(keyOID)
		})
}

// QueryConvoys returns archived convoys with at least q.MinSize objects
// (and whatever other predicates q carries), ordered by size. The size
// index makes the MinSize bound a scan start rather than a filter.
func (a *Archive) QueryConvoys(q Query) (Result, error) {
	minSize := max(q.MinSize, 0)
	if minSize > maxConvoySize {
		minSize = maxConvoySize // unsatisfiable; scan() short-circuits below
	}
	return a.scan(a.sizeIdx, storage.EncodeKey(int32(minSize), math.MinInt32), nil, q, nil,
		func(size int32, rec storage.LoggedConvoy) bool {
			return int32(len(rec.Convoy.Objs)) == size
		})
}

// maxConvoySize mirrors the log codec's plausibility cap.
const maxConvoySize = 1 << 24

type locator struct {
	off  int64
	size int32
	dur  int32
	end  int32
}

// beginRead pins the index view one query page reads: an LSM snapshot,
// captured under a brief a.mu read-lock acquisition. The page itself then
// runs with NO archive lock held, so a slow (cold-cache, big-budget) page
// cannot stall the archiver's writes, an expiry or other queries: the
// snapshot is the index as it was at capture, so records indexed after it
// do not change the page, and neither do flushes or compactions that
// reclaim expired entries. The log needs no pin: it is
// append-only, so every offset the snapshot holds stays valid. The caller
// must endRead.
func (a *Archive) beginRead(idx *lsm.DB) (*lsm.Snapshot, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return nil, errors.New("archive: closed")
	}
	snap, err := idx.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	a.liveReaders.Add(1)
	return snap, nil
}

func (a *Archive) endRead(snap *lsm.Snapshot) {
	snap.Release()
	a.liveReaders.Add(-1)
}

// scan is the shared paging engine: walk idx from the later of start and
// the query cursor, examine up to budget entries, and collect up to limit
// records passing the predicates. keep (optional) bounds the key range —
// returning false ends the query (used by the object index to stop at the
// next oid). extra (optional) is an additional index-only predicate beyond
// the locator-derived MinSize/MinDur checks. verify cross-checks a
// materialised record against its index entry; with the write path's
// records-before-indexes ordering and the prefix checksum it never fires,
// but it keeps index entries that outside interference left describing
// other bytes from returning records under the wrong key.
func (a *Archive) scan(idx *lsm.DB, start [storage.KeySize]byte,
	keep func(hi int32) bool, q Query, extra func(hi int32, loc locator) bool,
	verify func(hi int32, rec storage.LoggedConvoy) bool) (Result, error) {
	a.queries.Add(1)
	// Unsatisfiable predicates answer an empty page immediately. Without
	// this, a min_size above the codec's convoy-size cap (or a min_dur no
	// int32 lifespan can reach) would reject every entry it examines and
	// page budget-sized chunks of nothing across the whole index.
	if q.MinSize > maxConvoySize || q.MinDur > math.MaxInt32 {
		return Result{}, nil
	}
	snap, err := a.beginRead(idx)
	if err != nil {
		return Result{}, err
	}
	defer a.endRead(snap)
	// The watermark is read after the snapshot is taken: Drop reclaims
	// only entries below a watermark published earlier, so the snapshot
	// holds every entry at or past this one, and the page is the archive
	// at a single watermark.
	expiredBefore := a.expiredBefore.Load()
	if q.Cursor.set && bytes.Compare(q.Cursor.key[:], start[:]) > 0 {
		start = q.Cursor.key
	}
	var (
		limit  = q.limit()
		budget = q.budget()
		res    Result
	)
	// Two phases: the index walk collects up to limit candidate locators
	// (index-only predicates, no I/O beyond the index's own block reads),
	// then their records are materialised from the log. A record-level
	// reject (the feed filter) can leave a page shorter than limit;
	// More/cursor still make paging complete.
	type cand struct {
		hi  int32
		loc locator
	}
	var cands []cand
	err = snap.Scan(start, func(k, v []byte) bool {
		hi, _ := storage.DecodeKey(k)
		if keep != nil && !keep(hi) {
			return false // past the key range: query exhausted
		}
		loc := decodeLocator(v)
		if loc.end < expiredBefore {
			return true // expired: not there, so neither examined nor a resume point
		}
		if len(cands) >= limit || res.Scanned >= budget {
			// Page full before examining this entry: resume exactly here.
			copy(res.Next.key[:], k)
			res.Next.set = true
			res.More = true
			return false
		}
		res.Scanned++
		if int(loc.size) < q.MinSize || int(loc.dur) < q.MinDur {
			return true
		}
		if extra != nil && !extra(hi, loc) {
			return true
		}
		cands = append(cands, cand{hi: hi, loc: loc})
		return true
	})
	a.entriesScanned.Add(int64(res.Scanned))
	if err != nil {
		return Result{}, err
	}
	// Materialisation phase: one positioned read per candidate, in candidate
	// order, through one reused buffer.
	if len(cands) == 0 {
		return res, nil
	}
	f, err := os.Open(a.path)
	if err != nil {
		return Result{}, fmt.Errorf("archive: open log: %w", err)
	}
	defer f.Close()
	a.recordsRead.Add(int64(len(cands)))
	log := storage.NewConvoyReader(f)
	for _, c := range cands {
		rec, err := log.ReadAt(c.loc.off)
		if err != nil {
			return Result{}, err
		}
		if !verify(c.hi, rec) ||
			int32(len(rec.Convoy.Objs)) != c.loc.size ||
			rec.Convoy.End-rec.Convoy.Start+1 != c.loc.dur {
			continue // index entry does not describe this record: stale
		}
		if q.Feed != "" && rec.Feed != q.Feed {
			continue
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}
