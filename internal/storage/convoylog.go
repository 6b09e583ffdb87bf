package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/model"
)

// ConvoyLog is the closed-convoy sink of the convoyd server: an append-only
// binary log of (feed, convoy) records. It is the write-side counterpart of
// the flat-file point store — the same fixed-width little-endian codec
// style, but record-oriented because convoys are variable-length.
//
// Log layout:
//
//	header:  magic "K2CL" | version u32
//	records: feedLen u16 | feed | start i32 | end i32 | n u32 | n × oid i32
//
// Two records with no objects and End < Start are feed lifecycle markers,
// not convoys: the flush marker (End −1, see FlushMarker) and the eviction
// marker (End −2, see EvictMarker).
//
// The count field n doubles as a pattern tag: a plain convoy record (the
// only kind version 1 ever wrote) keeps bit 31 clear, so old logs decode
// unchanged and plain records still encode byte-for-byte as they always
// did. A record of another pattern family sets bit 31, carries the pattern
// id in bits 24–30 and the object count in bits 0–23 (counts were already
// capped at 2²⁴ by maxLoggedConvoySize), and — for moving clusters — is
// followed by the per-tick cluster block:
//
//	clusters: nClusters u32 | nClusters × (m u32 | m × oid i32)
//
// Appends are buffered and mutex-serialised, so many shard actors can share
// one log; Sync flushes the buffer and fsyncs, which is what the server's
// periodic persistence tick calls.
type ConvoyLog struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	off int64 // byte offset where the next Append will land
}

const (
	convoyLogMagic   = "K2CL"
	convoyLogVersion = 1
	// ConvoyLogHeaderSize is the byte offset of a log's first record.
	ConvoyLogHeaderSize = 8
	// maxLoggedConvoySize caps the object count a reader will allocate for,
	// so a corrupt length prefix cannot demand gigabytes. It is also the
	// modulus of the tagged count field (bits 0–23).
	maxLoggedConvoySize = 1 << 24

	// The tagged count-field layout (see the package comment).
	logRecExtended     = uint32(1) << 31
	logRecPatternShift = 24
	logRecPatternMask  = uint32(0x7F)
	logRecCountMask    = uint32(maxLoggedConvoySize - 1)
)

// Pattern ids carried by tagged log records. LogPatternConvoy is implicit —
// plain records never set the tag, keeping them byte-identical to the
// pre-pattern format.
const (
	LogPatternConvoy uint8 = 0
	LogPatternFlock  uint8 = 1
	LogPatternMC     uint8 = 2
)

// LoggedConvoy is one record of a ConvoyLog: a closed pattern together with
// the feed it was mined from. Pattern tags the family (LogPattern*); for
// moving clusters, Convoy carries the lifetime footprint and Clusters the
// per-tick cluster sequence (Clusters[i] is the cluster at Start+i).
type LoggedConvoy struct {
	Feed     string
	Convoy   model.Convoy
	Pattern  uint8
	Clusters []model.ObjSet
}

// FlushMarker returns the sentinel record convoyd appends after a feed's
// flush is fully durable, so a restart can restore the feed's terminal
// flushed state. The sentinel — an empty object set over the impossible
// interval [0,-1) — cannot collide with a real convoy (every mined convoy
// has End ≥ Start) and round-trips through the v1 codec unchanged, so old
// logs and readers stay compatible.
func FlushMarker() model.Convoy {
	return model.Convoy{Start: 0, End: -1}
}

// EvictMarker returns the record convoyd appends, and syncs, when a feed's
// incarnation ends by eviction, before the name can start a new one. It is
// shaped like FlushMarker, with End −2, so recovery tells the two apart and
// the v1 codec carries it unchanged.
func EvictMarker() model.Convoy {
	return model.Convoy{Start: 0, End: -2}
}

// IsMarker reports whether a logged convoy is a lifecycle marker (flush or
// eviction) rather than a convoy.
func IsMarker(c model.Convoy) bool {
	return len(c.Objs) == 0 && c.End < c.Start
}

// CreateConvoyLog creates (or truncates) a convoy log at path.
func CreateConvoyLog(path string) (*ConvoyLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("convoylog: create: %w", err)
	}
	l := &ConvoyLog{f: f, w: bufio.NewWriterSize(f, 1<<16), off: ConvoyLogHeaderSize}
	var hdr [8]byte
	copy(hdr[0:4], convoyLogMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], convoyLogVersion)
	if _, err := l.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("convoylog: write header: %w", err)
	}
	return l, nil
}

// EncodeLoggedRecord serialises one record in the log's wire format, as
// AppendRecord writes it; it is exported for callers that time encoding
// apart from the append (bench's convoylog layer). The codec is canonical
// (decode∘encode is the identity), so re-encoding a decoded record
// reproduces the on-disk bytes. Canonicality is enforced: a cluster block
// is carried by moving-cluster records and by no others.
func EncodeLoggedRecord(rec LoggedConvoy) ([]byte, error) {
	if len(rec.Feed) > int(^uint16(0)) {
		return nil, fmt.Errorf("convoylog: feed name too long (%d bytes)", len(rec.Feed))
	}
	c := rec.Convoy
	if len(c.Objs) >= maxLoggedConvoySize {
		return nil, fmt.Errorf("convoylog: object count %d exceeds the %d cap", len(c.Objs), maxLoggedConvoySize)
	}
	switch rec.Pattern {
	case LogPatternConvoy, LogPatternFlock:
		if len(rec.Clusters) != 0 {
			return nil, fmt.Errorf("convoylog: pattern %d record cannot carry clusters", rec.Pattern)
		}
	case LogPatternMC:
	default:
		return nil, fmt.Errorf("convoylog: unknown pattern id %d", rec.Pattern)
	}
	out := make([]byte, 0, 2+len(rec.Feed)+12+4*len(c.Objs))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(rec.Feed)))
	out = append(out, rec.Feed...)
	out = binary.LittleEndian.AppendUint32(out, uint32(c.Start))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.End))
	n := uint32(len(c.Objs))
	if rec.Pattern != LogPatternConvoy {
		n |= logRecExtended | uint32(rec.Pattern)<<logRecPatternShift
	}
	out = binary.LittleEndian.AppendUint32(out, n)
	for _, oid := range c.Objs {
		out = binary.LittleEndian.AppendUint32(out, uint32(oid))
	}
	if rec.Pattern == LogPatternMC {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Clusters)))
		for _, cl := range rec.Clusters {
			if len(cl) >= maxLoggedConvoySize {
				return nil, fmt.Errorf("convoylog: cluster size %d exceeds the %d cap", len(cl), maxLoggedConvoySize)
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(len(cl)))
			for _, oid := range cl {
				out = binary.LittleEndian.AppendUint32(out, uint32(oid))
			}
		}
	}
	return out, nil
}

// AppendRecord writes one record, pattern tag and cluster block included.
// The record is serialised first and handed to the writer in a single call,
// so a failing write cannot leave a half-built record in the buffer (bytes
// already flushed to a failing disk may still be partial — after any error
// the bufio writer is stuck in its error state and the log should be
// considered ended at the last Sync).
func (l *ConvoyLog) AppendRecord(rec LoggedConvoy) error {
	enc, err := EncodeLoggedRecord(rec)
	if err != nil {
		return err
	}
	return l.AppendEncoded(enc)
}

// AppendEncoded writes one record already serialised by EncodeLoggedRecord:
// AppendRecord's second half, and what bench's convoylog layer times on
// its own.
func (l *ConvoyLog) AppendEncoded(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(rec); err != nil {
		return err
	}
	l.off += int64(len(rec))
	return nil
}

// Offset returns the byte offset at which the next append will land. After
// a Sync it is also the durable size of the log file; the archive's index
// entries address records by it.
func (l *ConvoyLog) Offset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Sync flushes buffered records and forces them to stable storage.
func (l *ConvoyLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close flushes and closes the log.
func (l *ConvoyLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// readLogHeader consumes and validates the 8-byte log header.
func readLogHeader(r *bufio.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("convoylog: read header: %w", err)
	}
	if string(hdr[0:4]) != convoyLogMagic {
		return errors.New("convoylog: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != convoyLogVersion {
		return fmt.Errorf("convoylog: unsupported version %d", v)
	}
	return nil
}

// readLogRecord decodes one record and reports its encoded size. io.EOF
// means a clean record boundary (end of log); io.ErrUnexpectedEOF means the
// log ends inside the record — the truncated tail a crash mid-append leaves
// behind.
func readLogRecord(r *bufio.Reader) (LoggedConvoy, int64, error) {
	lenBuf, err := r.Peek(2)
	if len(lenBuf) < 2 {
		if len(lenBuf) == 0 {
			return LoggedConvoy{}, 0, err // io.EOF here is the clean end
		}
		return LoggedConvoy{}, 0, truncated(err)
	}
	feedLen := int(binary.LittleEndian.Uint16(lenBuf))
	r.Discard(2)
	rec, err := readN(r, feedLen+12)
	if err != nil {
		return LoggedConvoy{}, 0, err
	}
	feed := string(rec[:feedLen])
	start := int32(binary.LittleEndian.Uint32(rec[feedLen : feedLen+4]))
	end := int32(binary.LittleEndian.Uint32(rec[feedLen+4 : feedLen+8]))
	n := binary.LittleEndian.Uint32(rec[feedLen+8 : feedLen+12])
	pattern := LogPatternConvoy
	if n&logRecExtended != 0 {
		pattern = uint8(n >> logRecPatternShift & logRecPatternMask)
		n &= logRecCountMask
		if pattern == LogPatternConvoy || pattern > LogPatternMC {
			// A tagged plain-convoy record is never written (the plain form
			// is canonical), so either way this is corruption.
			return LoggedConvoy{}, 0, fmt.Errorf("convoylog: implausible pattern id %d", pattern)
		}
	}
	if n > maxLoggedConvoySize {
		return LoggedConvoy{}, 0, fmt.Errorf("convoylog: implausible object count %d", n)
	}
	objs, err := readOIDs(r, int(n))
	if err != nil {
		return LoggedConvoy{}, 0, err
	}
	size := int64(2 + feedLen + 12 + 4*int(n))
	out := LoggedConvoy{
		Feed:    feed,
		Convoy:  model.Convoy{Objs: objs, Start: start, End: end},
		Pattern: pattern,
	}
	if pattern == LogPatternMC {
		cnt, err := readN(r, 4)
		if err != nil {
			return LoggedConvoy{}, 0, err
		}
		nClusters := binary.LittleEndian.Uint32(cnt)
		if nClusters > maxLoggedConvoySize {
			return LoggedConvoy{}, 0, fmt.Errorf("convoylog: implausible cluster count %d", nClusters)
		}
		size += 4
		out.Clusters = make([]model.ObjSet, nClusters)
		for i := range out.Clusters {
			if cnt, err = readN(r, 4); err != nil {
				return LoggedConvoy{}, 0, err
			}
			m := binary.LittleEndian.Uint32(cnt)
			if m > maxLoggedConvoySize {
				return LoggedConvoy{}, 0, fmt.Errorf("convoylog: implausible cluster size %d", m)
			}
			if out.Clusters[i], err = readOIDs(r, int(m)); err != nil {
				return LoggedConvoy{}, 0, err
			}
			size += 4 + 4*int64(m)
		}
	}
	return out, size, nil
}

// readN returns the next n bytes of r: a view into r's buffer, valid until
// the next read, or a copy when n outgrows the buffer. A log ending inside
// them is io.ErrUnexpectedEOF.
func readN(r *bufio.Reader, n int) ([]byte, error) {
	if n > r.Size() {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, truncated(err)
	}
	b, err := r.Peek(n)
	if len(b) < n {
		return nil, truncated(err)
	}
	r.Discard(n)
	return b, nil
}

// readOIDs decodes the next n little-endian int32 object ids of r.
func readOIDs(r *bufio.Reader, n int) (model.ObjSet, error) {
	b, err := readN(r, 4*n)
	if err != nil {
		return nil, err
	}
	ids := make(model.ObjSet, n)
	for i := range ids {
		ids[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return ids, nil
}

// truncated normalises a mid-record io.EOF (ReadFull reports it only when
// zero bytes were read) to io.ErrUnexpectedEOF, so callers distinguish the
// clean end of the log from a torn tail by error value alone.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ScanConvoyLog iterates the records of a convoy log in append order,
// calling fn for each complete record, and returns the byte offset just
// past the last complete record. A truncated final record — the torn tail a
// crash mid-append leaves — is not an error: the scan stops at the last
// record boundary and the returned offset excludes the partial bytes, so
// OpenConvoyLogFrom can truncate them away. Genuine corruption (bad magic,
// implausible lengths) and fn errors still fail.
func ScanConvoyLog(path string, fn func(LoggedConvoy) error) (int64, error) {
	return ScanConvoyLogFrom(path, 0, func(_ int64, rec LoggedConvoy) error { return fn(rec) })
}

// ScanConvoyLogFrom is ScanConvoyLog with positions: fn receives each
// record's starting byte offset, and the scan may resume mid-log at a
// record boundary `from` previously returned by a scan (0 means the first
// record, right after the header — the header is validated in either
// case; a nil fn only finds the end). The archive uses it to index only the
// records past its durable watermark.
func ScanConvoyLogFrom(path string, from int64, fn func(off int64, rec LoggedConvoy) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("convoylog: open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	if err := readLogHeader(r); err != nil {
		return 0, err
	}
	off := int64(ConvoyLogHeaderSize)
	if from > off {
		if _, err := f.Seek(from, io.SeekStart); err != nil {
			return 0, fmt.Errorf("convoylog: seek: %w", err)
		}
		r.Reset(f)
		off = from
	}
	for i := 0; ; i++ {
		rec, size, err := readLogRecord(r)
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("convoylog: scan record %d: %w", i, err)
		}
		if fn != nil {
			if err := fn(off, rec); err != nil {
				return off, err
			}
		}
		off += size
	}
}

// ConvoyReader is the random-access read path of the archive: secondary
// indexes store record offsets, and a query materialises each hit with one
// positioned read. Every ReadAt goes through the same read buffer. Not
// safe for concurrent use.
type ConvoyReader struct {
	r  io.ReaderAt
	br *bufio.Reader
}

// NewConvoyReader returns a reader of the records of r.
func NewConvoyReader(r io.ReaderAt) *ConvoyReader {
	// Records are small (tens of bytes to a few KiB); a 4 KiB first read
	// covers almost all of them in one pread, and the SectionReader serves
	// the rare oversized object list with follow-up reads.
	return &ConvoyReader{r: r, br: bufio.NewReaderSize(nil, 4096)}
}

// ReadAt decodes the record starting at byte offset off. The offset must
// be a record boundary previously produced by ScanConvoyLogFrom or
// ConvoyLog.Offset; arbitrary offsets fail with a decode error (or worse,
// decode garbage), they are not validated.
func (cr *ConvoyReader) ReadAt(off int64) (LoggedConvoy, error) {
	cr.br.Reset(io.NewSectionReader(cr.r, off, 1<<31))
	rec, _, err := readLogRecord(cr.br)
	if err != nil {
		return LoggedConvoy{}, fmt.Errorf("convoylog: read at %d: %w", off, truncated(err))
	}
	return rec, nil
}

// OpenConvoyLogFrom opens the log at path for appending, creating it when
// absent. An existing log is replayed through fn (which may be nil) first,
// and a partial tail record left by a crash is truncated away so the next
// append lands on a record boundary. A file too short to hold even the
// header (a crash before the first sync) is recreated from scratch. The
// replay starts at from, a record boundary the caller already trusts (0
// replays everything), so reopening a large log does not pay a full-prefix
// rescan.
func OpenConvoyLogFrom(path string, from int64, fn func(off int64, rec LoggedConvoy) error) (*ConvoyLog, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) || (err == nil && st.Size() < ConvoyLogHeaderSize) {
		return CreateConvoyLog(path)
	}
	if err != nil {
		return nil, fmt.Errorf("convoylog: stat: %w", err)
	}
	off, err := ScanConvoyLogFrom(path, from, fn)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("convoylog: open: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("convoylog: truncate partial tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("convoylog: seek: %w", err)
	}
	return &ConvoyLog{f: f, w: bufio.NewWriterSize(f, 1<<16), off: off}, nil
}
