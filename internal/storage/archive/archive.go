// Package archive implements the historical convoy store behind convoyd's
// /v1/query endpoints: three LSM-backed secondary indexes over a convoy log
// make the questions a scan-only log cannot answer — "which convoys crossed
// this hour?", "which convoys contained object 42?", "which convoys had at
// least m objects for at least k ticks?" — into bounded index range reads.
//
// # Layout
//
// The archive holds no copy of the convoys. It indexes one K2CL file in
// place and keeps only derived state in its directory:
//
//	time/ obj/ size/   lsm.DB secondary indexes (see key schemas below)
//	META               durable index watermark (JSON, atomically replaced)
//
// The indexed file is convoyd's own convoy log when the archive is opened
// with OpenAndBackfill, and dir/records.k2cl — appended to by AddBatch —
// when it is opened standalone with Open. Index entries are 8-byte LSM keys
// mapping to a 16-byte locator (file offset, object count, duration), so a
// query materialises each hit with one positioned read of the log. A
// record's sequence number is its ordinal among the log's convoy records
// (flush markers are not counted); it is the tie-breaker of every key, all
// through storage.EncodeKey's order-preserving (int32, int32) packing:
//
//	time/  (convoy End,   seq) → locator   interval queries: scan keys with
//	                                       End ≥ from, filter Start ≤ to —
//	                                       Start is derived from the
//	                                       locator's duration, no record
//	                                       read needed to reject
//	obj/   (member oid,   seq) → locator   one entry per member object
//	size/  (object count, seq) → locator   min-size / min-duration queries
//
// # Crash safety
//
// A record is fsynced in the log before its first index entry is written,
// so an index entry can never reference bytes a crash took away, and the
// log is append-only, so an offset never moves. The indexes have no
// write-ahead log of their own: META records how far into the log the
// flushed SSTables reach (flushLocked flushes all three before it writes
// META — the one ordering needed), and whatever is not in a flushed run is
// indexed again from META's offset when the archive is opened — index puts
// are idempotent (same key, same locator).
//
// META also carries a checksum of the log bytes below the watermark. A log
// that was compacted or replaced no longer matches it; the indexes are then
// discarded and rebuilt from the log, which is always the source of truth.
// So are indexes in another on-disk format: META names the lsm.Format its
// indexes were written in, and an archive from a build whose SSTables
// carried a bloom filter names none.
//
// # Retention
//
// Expire(before) removes every convoy whose End tick precedes before from
// all three indexes (see retention.go for the crash protocol); the log is
// not touched. The expiry watermark is durable in META: records below it
// are never indexed again, so re-indexing a log tail does not resurrect
// expired history. Sequence numbers are positions in the log and never
// change, so query cursors stay valid across an expiry. The one degraded
// case: a rebuild starts from an empty META, so the watermark is lost and
// expired records reappear — the next retention cycle re-expires them.
package archive

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/storage/durable"
	"repro/internal/storage/lsm"
)

// Options tunes an archive.
type Options struct {
	// CacheBytes is the combined in-memory budget of the three secondary
	// indexes: each gets a quarter as its write buffer (larger values mean
	// fewer, bigger SSTable flushes) and a twelfth as its block cache for
	// the read path (3×1/4 + 3×1/12 = the whole budget). Default 12 MiB.
	// The write buffers are sized in accounted bytes (lsm memtable.bytes);
	// an index entry occupies about 1.3× its accounted 56 B (74 B), so
	// three full write buffers hold up to ≈ 12 MiB of heap under the default.
	CacheBytes int
}

const (
	recordsName = "records.k2cl"
	metaName    = "META"
	// maxSeq bounds the archive to what the int32 sequence component of
	// the index keys can address.
	maxSeq = math.MaxInt32
)

// meta is the durable checkpoint: the log's first Offset bytes hold Records
// convoy records, all of them reflected in flushed SSTables, Live of them
// not expired, and CRC is the IEEE checksum of those bytes past the header.
// Open trusts the checkpoint once the format and the checksum match and
// indexes only the log's tail past Offset, so startup cost is proportional
// to the un-flushed tail, not the log's lifetime.
type meta struct {
	// Format is the lsm.Format the indexes were written in. META under
	// another format (or none, as before SSTables lost their bloom filter)
	// does not describe indexes this build can read: they are rebuilt.
	Format  string `json:"format"`
	Records int64  `json:"records"`
	Live    int64  `json:"live"`
	Offset  int64  `json:"offset"`
	CRC     uint32 `json:"crc"`
	// ExpiredBefore is the retention watermark: every record with
	// End < ExpiredBefore has been (or is being) expired. MinInt32 means
	// nothing was ever expired.
	ExpiredBefore int32 `json:"expired_before"`
	// MaxEnd is the largest End tick ever indexed, kept durable so
	// relative retention ("keep the last N ticks") survives an expiry of
	// the very records that defined it.
	MaxEnd int32 `json:"max_end"`
}

// Located is a convoy-log record together with the byte offset it was
// appended at.
type Located struct {
	Off int64
	Rec storage.LoggedConvoy
}

// Archive is a set of LSM indexes over a convoy log. Writes (AddBatch,
// Index, Flush, Expire) are serialised; queries capture a view under a
// brief read lock and then run without it.
type Archive struct {
	dir  string
	path string // the indexed K2CL file
	opts Options

	mu sync.RWMutex
	// own is the append handle of dir/records.k2cl; nil when the archive
	// indexes a log somebody else appends to.
	own     *storage.ConvoyLog
	next    int64  // sequence number of the log's next convoy record
	live    int64  // indexed records not expired
	end     int64  // log offset up to which records are indexed
	crc     uint32 // checksum of log bytes [header, crcEnd), as in META
	crcEnd  int64
	flushed int64 // live as of the last META write
	timeIdx *lsm.DB
	objIdx  *lsm.DB
	sizeIdx *lsm.DB
	closed  bool

	// Retention state (see retention.go). expiredBefore is the durable
	// watermark: records with End below it are expired and later arrivals
	// below it are not indexed. maxEnd is the largest End ever indexed;
	// expiredTotal counts records expired by this process.
	expiredBefore int32
	maxEnd        int32
	expiredTotal  int64

	// readers counts query pages in flight; Expire drains it so a page sees
	// the index either before or after an expiry, never part of one.
	readers sync.WaitGroup

	// Query-side counters, exposed via Stats. liveReaders gauges query
	// pages currently holding a read view (see beginRead).
	queries        atomic.Int64
	entriesScanned atomic.Int64
	recordsRead    atomic.Int64
	liveReaders    atomic.Int64
}

// Open opens (or creates) the standalone archive in dir: the indexed file
// is dir/records.k2cl and AddBatch appends to it. A directory must be
// reopened the way it was created: indexes built over another log do not
// describe records.k2cl and are discarded like any other mismatch.
func Open(dir string, opts *Options) (*Archive, error) {
	a, _, _, err := open(dir, filepath.Join(dir, recordsName), true, opts)
	return a, err
}

// OpenAndBackfill opens the archive in dir over the convoy log at logPath,
// which the caller keeps appending to (see Index): nothing is copied, the
// log's records past the META watermark are indexed in place. When the log
// no longer matches the checkpoint (offline compaction, replaced log) the
// indexes are discarded and rebuilt from it. Returns the opened archive,
// the number of records indexed, and whether a rebuild happened.
func OpenAndBackfill(dir, logPath string, opts *Options) (*Archive, int64, bool, error) {
	return open(dir, logPath, false, opts)
}

func open(dir, path string, own bool, opts *Options) (_ *Archive, added int64, rebuilt bool, err error) {
	a := &Archive{dir: dir, path: path}
	if opts != nil {
		a.opts = *opts
	}
	if a.opts.CacheBytes <= 0 {
		a.opts.CacheBytes = 12 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, false, fmt.Errorf("archive: mkdir: %w", err)
	}
	fresh := meta{Offset: storage.ConvoyLogHeaderSize, ExpiredBefore: math.MinInt32, MaxEnd: math.MinInt32}
	m := fresh
	data, rerr := os.ReadFile(filepath.Join(dir, metaName))
	switch {
	case errors.Is(rerr, os.ErrNotExist):
		// A new archive, or indexes that lost their checkpoint.
	case rerr != nil:
		return nil, 0, false, fmt.Errorf("archive: read META: %w", rerr)
	case json.Unmarshal(data, &m) != nil || !m.describes(path):
		rebuilt = true
	}
	if rerr != nil || rebuilt {
		// Without a trusted checkpoint every index entry is suspect. Only
		// the entries the archive owns are deleted; the directory itself —
		// and anything else an operator keeps in it — is left alone.
		for _, name := range []string{metaName, "time", "obj", "size"} {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return nil, 0, false, fmt.Errorf("archive: reset indexes: %w", err)
			}
		}
		m = fresh
	}
	a.next, a.live, a.flushed = m.Records, m.Live, m.Live
	a.end, a.crc, a.crcEnd = m.Offset, m.CRC, m.Offset
	a.expiredBefore, a.maxEnd = m.ExpiredBefore, m.MaxEnd
	if err := a.openIndexes(); err != nil {
		return nil, 0, false, err
	}
	defer func() {
		if err != nil {
			a.abandon()
		}
	}()
	// A missing log, or one too short to hold its header — what a crash (or
	// a clean start) leaves before the first sync, the header still in the
	// writer's buffer — holds no records.
	st, serr := os.Stat(path)
	switch {
	case serr == nil && st.Size() >= storage.ConvoyLogHeaderSize:
		if a.end, err = storage.ScanConvoyLogFrom(path, m.Offset, a.indexRecord); err != nil {
			return nil, 0, false, err
		}
	case serr != nil && !errors.Is(serr, os.ErrNotExist):
		return nil, 0, false, fmt.Errorf("archive: %w", serr)
	}
	if own {
		// Resume appending at the boundary the scan found, truncating any
		// torn tail (and creating the file when it is missing).
		if a.own, err = storage.OpenConvoyLogFrom(path, a.end, nil); err != nil {
			return nil, 0, false, err
		}
	}
	// A watermark above the oldest index entry means a crash interrupted an
	// Expire after it committed the watermark. Finish the job now;
	// applyExpireLocked is a cheap no-op when nothing is pending.
	if err := a.applyExpireLocked(); err != nil {
		return nil, 0, false, fmt.Errorf("archive: complete interrupted expiry: %w", err)
	}
	if added = a.live - m.Live; added > 0 || rebuilt {
		if err := a.flushLocked(); err != nil {
			return nil, 0, false, err
		}
	}
	return a, added, rebuilt, nil
}

// describes reports whether the checkpoint is in this build's index format
// and the log at path still starts with the bytes it was taken over. A
// compacted, replaced or truncated log does not.
func (m meta) describes(path string) bool {
	if m.Format != lsm.Format || m.Offset < storage.ConvoyLogHeaderSize {
		return false
	}
	crc, err := logCRC(path, storage.ConvoyLogHeaderSize, m.Offset, 0)
	return err == nil && crc == m.CRC
}

// logCRC extends crc over the log's bytes [from, to). A log shorter than to
// is an error.
func logCRC(path string, from, to int64, crc uint32) (uint32, error) {
	if to <= from {
		return crc, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crcWriter{crc}
	if n, err := io.Copy(&h, io.NewSectionReader(f, from, to-from)); err != nil {
		return 0, err
	} else if n != to-from {
		return 0, io.ErrUnexpectedEOF
	}
	return h.crc, nil
}

// crcWriter is a running IEEE CRC that can resume from a stored value,
// which hash/crc32's Hash32 cannot.
type crcWriter struct{ crc uint32 }

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}

func (a *Archive) openIndexes() error {
	var err error
	if a.timeIdx, err = lsm.Open(filepath.Join(a.dir, "time"), a.indexOpts()); err != nil {
		return err
	}
	if a.objIdx, err = lsm.Open(filepath.Join(a.dir, "obj"), a.indexOpts()); err != nil {
		a.timeIdx.Close()
		return err
	}
	if a.sizeIdx, err = lsm.Open(filepath.Join(a.dir, "size"), a.indexOpts()); err != nil {
		a.timeIdx.Close()
		a.objIdx.Close()
		return err
	}
	return nil
}

func (a *Archive) indexOpts() *lsm.Options {
	return &lsm.Options{
		MemtableBytes:   a.opts.CacheBytes / 4,
		BlockCacheBytes: a.opts.CacheBytes / 12,
	}
}

// indexRecord writes the index entries (one per secondary key, plus one per
// member object) of the log record at offset off, which must be the log's
// next record: its sequence number is its ordinal. Flush markers are feed
// lifecycle state, not convoys — they take no sequence number. A record
// below the retention watermark takes its number and nothing else, exactly
// as if an Expire had already removed it.
func (a *Archive) indexRecord(off int64, rec storage.LoggedConvoy) error {
	c := rec.Convoy
	if storage.IsFlushMarker(c) {
		return nil
	}
	if a.next > maxSeq {
		return fmt.Errorf("archive: full (%d records)", a.next)
	}
	seq := int32(a.next)
	a.next++
	if c.End < a.expiredBefore {
		return nil
	}
	loc := encodeLocator(off, int32(len(c.Objs)), c.End-c.Start+1)
	if err := a.timeIdx.PutKV(storage.EncodeKey(c.End, seq), loc); err != nil {
		return err
	}
	if err := a.sizeIdx.PutKV(storage.EncodeKey(int32(len(c.Objs)), seq), loc); err != nil {
		return err
	}
	for _, oid := range c.Objs {
		if err := a.objIdx.PutKV(storage.EncodeKey(oid, seq), loc); err != nil {
			return err
		}
	}
	a.live++
	a.maxEnd = max(a.maxEnd, c.End)
	return nil
}

// Index adds the index entries of records the caller appended to the log
// and fsynced — the ordering Open's recovery depends on. Every convoy
// record of the log must be handed over exactly once, in log order; end is
// the log offset just past the last one. Any error leaves the archive
// unusable for further writes; the next open repairs it from the log.
func (a *Archive) Index(recs []Located, end int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.indexLocked(recs, end)
}

func (a *Archive) indexLocked(recs []Located, end int64) error {
	if a.closed {
		return errors.New("archive: closed")
	}
	for _, r := range recs {
		if err := a.indexRecord(r.Off, r.Rec); err != nil {
			return err
		}
	}
	a.end = end
	return nil
}

// AddBatch appends a batch of records to a standalone archive's own log,
// fsyncs it, and indexes them. Flush markers are skipped.
func (a *Archive) AddBatch(recs []storage.LoggedConvoy) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("archive: closed")
	}
	if a.own == nil {
		return errors.New("archive: AddBatch on an archive that indexes an external log")
	}
	batch := make([]Located, 0, len(recs))
	for _, rec := range recs {
		if storage.IsFlushMarker(rec.Convoy) {
			continue
		}
		batch = append(batch, Located{Off: a.own.Offset(), Rec: rec})
		if err := a.own.AppendRecord(rec); err != nil {
			return err
		}
	}
	if len(batch) == 0 {
		return nil
	}
	if err := a.own.Sync(); err != nil {
		return err
	}
	return a.indexLocked(batch, a.own.Offset())
}

// Flush makes the indexes durable (memtables → SSTables) and advances the
// META watermark, so the next open indexes only records added after this
// call. When nothing was indexed or expired since the last META write it
// does nothing: an idle archive is not rewritten on every flush tick.
func (a *Archive) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.closed && a.end == a.crcEnd && a.live == a.flushed {
		return nil
	}
	return a.flushLocked()
}

func (a *Archive) flushLocked() error {
	if a.closed {
		return errors.New("archive: closed")
	}
	for _, db := range []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx} {
		if err := db.Flush(); err != nil {
			return err
		}
	}
	crc, err := logCRC(a.path, a.crcEnd, a.end, a.crc)
	if err != nil {
		return fmt.Errorf("archive: checksum log: %w", err)
	}
	data, err := json.Marshal(meta{
		Format: lsm.Format, Records: a.next, Live: a.live, Offset: a.end, CRC: crc,
		ExpiredBefore: a.expiredBefore, MaxEnd: a.maxEnd,
	})
	if err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(a.dir, metaName), data); err != nil {
		return err
	}
	a.crc, a.crcEnd, a.flushed = crc, a.end, a.live
	return nil
}

// Close flushes and closes the archive.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	firstErr := a.flushLocked()
	a.closed = true
	for _, db := range []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx} {
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if a.own != nil {
		if err := a.own.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abandon closes every handle without flushing buffered index state: the
// error path of open, and the simulated process kill of the crash tests.
// The archive must not be used afterwards.
func (a *Archive) abandon() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	for _, db := range []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx} {
		db.Abandon()
	}
	if a.own != nil {
		a.own.Close()
	}
}

// Count returns the number of archived convoys currently live (expired
// records no longer count).
func (a *Archive) Count() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.live
}

// MaxEnd returns the largest End tick ever archived, or ok=false while
// the archive has never held a record. It is the anchor for relative
// retention ("expire everything older than the newest N ticks").
func (a *Archive) MaxEnd() (int32, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.maxEnd, a.maxEnd != math.MinInt32
}

// Stats is a point-in-time snapshot of the archive's size and query
// counters, shaped for convoyd's /v1/stats.
type Stats struct {
	Records int64 `json:"records"`
	// RecordsBytes is the size of the indexed prefix of the log.
	RecordsBytes   int64 `json:"records_bytes"`
	IndexedDurable int64 `json:"indexed_durable"`
	QueriesTotal   int64 `json:"queries_total"`
	EntriesScanned int64 `json:"index_entries_scanned_total"`
	RecordsRead    int64 `json:"records_read_total"`
	// Read-path counters, summed across the three secondary indexes.
	// BlockCache{Hits,Misses} count data-block lookups in the shared
	// sharded caches. BloomHits and BloomMisses always read 0: SSTables
	// carry no bloom filter. They are kept only because the benchmark
	// compiles against them, and go when it stops reading them.
	BloomHits        int64 `json:"bloom_hits_total"`
	BloomMisses      int64 `json:"bloom_misses_total"`
	BlockCacheHits   int64 `json:"block_cache_hits_total"`
	BlockCacheMisses int64 `json:"block_cache_misses_total"`
	// LiveSnapshots gauges LSM snapshots currently pinned by readers
	// (summed across the indexes); LiveReaders gauges query pages holding
	// a read view right now. Both drain to zero at idle.
	LiveSnapshots int64 `json:"live_snapshots"`
	LiveReaders   int64 `json:"live_readers"`
	// ExpiredTotal counts records removed by retention since this process
	// opened the archive; ExpiredBefore is the durable watermark (absent
	// until the first expiry — convoys with End below it are gone).
	ExpiredTotal  int64  `json:"expired_total"`
	ExpiredBefore *int32 `json:"expired_before,omitempty"`
}

// Stats returns the archive counters.
func (a *Archive) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	st := Stats{
		Records:        a.live,
		RecordsBytes:   a.end,
		IndexedDurable: a.flushed,
		QueriesTotal:   a.queries.Load(),
		EntriesScanned: a.entriesScanned.Load(),
		RecordsRead:    a.recordsRead.Load(),
		LiveReaders:    a.liveReaders.Load(),
		ExpiredTotal:   a.expiredTotal,
	}
	for _, db := range []*lsm.DB{a.timeIdx, a.objIdx, a.sizeIdx} {
		rs := db.ReadStats()
		st.BlockCacheHits += rs.BlockCacheHits
		st.BlockCacheMisses += rs.BlockCacheMisses
		st.LiveSnapshots += rs.LiveSnapshots
	}
	if a.expiredBefore != math.MinInt32 {
		w := a.expiredBefore
		st.ExpiredBefore = &w
	}
	return st
}

// --- locator codec ------------------------------------------------------

// encodeLocator packs an index value: log offset, object count, and
// duration in ticks. Size and duration ride along so min-size and
// min-duration predicates (and the Start = End−dur+1 derivation time
// queries need) are answered from the index entry alone.
func encodeLocator(off int64, size, dur int32) [storage.ValueSize]byte {
	var v [storage.ValueSize]byte
	binary.LittleEndian.PutUint64(v[0:8], uint64(off))
	binary.LittleEndian.PutUint32(v[8:12], uint32(size))
	binary.LittleEndian.PutUint32(v[12:16], uint32(dur))
	return v
}

func decodeLocator(v []byte) (off int64, size, dur int32) {
	off = int64(binary.LittleEndian.Uint64(v[0:8]))
	size = int32(binary.LittleEndian.Uint32(v[8:12]))
	dur = int32(binary.LittleEndian.Uint32(v[12:16]))
	return off, size, dur
}
