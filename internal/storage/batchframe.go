package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/model"
)

// The K2BI batch frame is the binary ingest wire format of convoyd: one
// frame carries every position snapshot of one feed at one timestamp, so a
// client streaming a city tick sends one frame instead of thousands of JSON
// position objects. It follows the house codec idiom of K2CL and the
// flat-file store — magic + version header, little-endian fixed-width
// scalars — extended with a varint payload length (frames are
// self-delimiting, so any number of them concatenate on one connection)
// and a CRC32 trailer (ingest crosses untrusted networks; the convoy log
// never leaves the machine).
//
// Frame layout:
//
//	off  size  field
//	0    4     magic "K2BI"
//	4    1     version (1)
//	5    ≤10   payload length L (uvarint)
//	·    L     payload:
//	             t  i32 LE                     (4 bytes)
//	             n  (uvarint)                  count of positions
//	             n × (oid i32 LE | x f64 LE | y f64 LE)   20 bytes each
//	·    4     CRC32 (IEEE) of every preceding frame byte, LE
//
// The payload length is redundant with the position count; the decoder
// checks they agree, so a corrupt varint is caught structurally even before
// the CRC comparison.
const (
	batchFrameMagic   = "K2BI"
	batchFrameVersion = 1
	// batchPosSize is the encoded size of one position record.
	batchPosSize = 20
	// MaxBatchFramePositions caps the position count one frame may carry
	// (and therefore what a decoder will allocate for), so a corrupt or
	// hostile count cannot demand gigabytes.
	MaxBatchFramePositions = 1 << 22
	// maxBatchPayload is the largest payload MaxBatchFramePositions allows.
	maxBatchPayload = 4 + binary.MaxVarintLen64 + batchPosSize*MaxBatchFramePositions
)

// ErrBadFrame tags every decoder failure that means "these bytes are not a
// well-formed K2BI frame" — bad magic, unsupported version, implausible or
// inconsistent lengths, CRC mismatch. Truncation is not tagged: a frame cut
// short by a closed connection is io.ErrUnexpectedEOF, and a clean end of
// stream between frames is io.EOF.
var ErrBadFrame = errors.New("batchframe: invalid frame")

// AppendBatchFrame appends one encoded frame for timestamp t to dst and
// returns the extended slice. Encoding is infallible except for an
// oversized batch; callers stream multiple ticks by appending multiple
// frames to one buffer.
func AppendBatchFrame(dst []byte, t int32, pos []model.ObjPos) ([]byte, error) {
	if len(pos) > MaxBatchFramePositions {
		return dst, fmt.Errorf("batchframe: %d positions exceed the frame cap %d", len(pos), MaxBatchFramePositions)
	}
	base := len(dst)
	dst = append(dst, batchFrameMagic...)
	dst = append(dst, batchFrameVersion)
	payload := 4 + uvarintLen(uint64(len(pos))) + batchPosSize*len(pos)
	dst = binary.AppendUvarint(dst, uint64(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	dst = binary.AppendUvarint(dst, uint64(len(pos)))
	for _, p := range pos {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.OID))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// BatchFrameReader decodes a sequence of K2BI frames from a stream. It is
// allocation-free in steady state: the frame buffer is reused across Next
// calls and position storage comes from the caller (grow once, reuse
// forever), mirroring how ScanConvoyLogFrom reuses its record buffers.
type BatchFrameReader struct {
	r   *bufio.Reader
	buf []byte // reused header+payload bytes of the frame being decoded
}

// NewBatchFrameReader wraps r for frame decoding. The reader buffers
// internally; do not read from r directly between Next calls.
func NewBatchFrameReader(r io.Reader) *BatchFrameReader {
	return &BatchFrameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Reset redirects the reader to a new stream, keeping its internal buffers.
func (d *BatchFrameReader) Reset(r io.Reader) {
	d.r.Reset(r)
}

// Next decodes one frame. Positions are appended to pos (pass buf[:0] to
// reuse a buffer across calls; the returned slice aliases it) and the
// frame's timestamp is returned. io.EOF marks the clean end of the stream
// — a boundary between frames; a stream ending inside a frame is
// io.ErrUnexpectedEOF, and structurally invalid bytes fail with an error
// wrapping ErrBadFrame.
func (d *BatchFrameReader) Next(pos []model.ObjPos) (t int32, out []model.ObjPos, err error) {
	// Header: magic, version, payload-length varint. Every consumed byte is
	// kept in d.buf because the CRC covers the whole frame.
	d.buf = d.buf[:0]
	hdr := d.buf[0:0]
	for len(hdr) < len(batchFrameMagic)+1 {
		b, err := d.r.ReadByte()
		if err != nil {
			if err == io.EOF && len(hdr) == 0 {
				return 0, pos, io.EOF // clean boundary: no frame started
			}
			return 0, pos, truncated(err)
		}
		hdr = append(hdr, b)
	}
	if string(hdr[:4]) != batchFrameMagic {
		return 0, pos, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:4])
	}
	if hdr[4] != batchFrameVersion {
		return 0, pos, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, hdr[4])
	}
	payloadLen, hdr, err := readUvarint(d.r, hdr)
	if err != nil {
		return 0, pos, err
	}
	if payloadLen > maxBatchPayload {
		return 0, pos, fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, payloadLen)
	}
	if payloadLen < 5 { // t (4) plus at least one count byte
		return 0, pos, fmt.Errorf("%w: payload length %d too short", ErrBadFrame, payloadLen)
	}
	// Payload, read in one ReadFull into the reused buffer. The buffer is
	// sized with 4 spare bytes so the CRC trailer can land in it too — a
	// stack [4]byte would escape through io.ReadFull's interface argument
	// and cost one heap allocation per frame.
	need := len(hdr) + int(payloadLen)
	if cap(d.buf) < need+4 {
		// A quarter of headroom over the last buffer: the frames of one body
		// differ by a few positions, and an exact-size buffer was replaced
		// for every frame that outgrew the last by one. make, not
		// slices.Grow: the length is not yet backed by received bytes, and
		// make leaves the pages of a large buffer untouched until they are.
		d.buf = append(make([]byte, 0, need+4+cap(d.buf)/4), hdr...)
	} else {
		d.buf = d.buf[:len(hdr)]
	}
	d.buf = d.buf[:need]
	payload := d.buf[len(hdr):]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return 0, pos, truncated(err)
	}
	t = int32(binary.LittleEndian.Uint32(payload[:4]))
	n, vn := binary.Uvarint(payload[4:])
	if vn <= 0 || n > MaxBatchFramePositions {
		return 0, pos, fmt.Errorf("%w: bad position count", ErrBadFrame)
	}
	if int(payloadLen) != 4+vn+batchPosSize*int(n) {
		return 0, pos, fmt.Errorf("%w: payload length %d does not match %d positions", ErrBadFrame, payloadLen, n)
	}
	// CRC trailer, covering header+payload (everything in d.buf so far).
	// The checksum is computed before the trailer shares the buffer.
	got := crc32.ChecksumIEEE(d.buf)
	trailer := d.buf[need : need+4]
	if _, err := io.ReadFull(d.r, trailer); err != nil {
		return 0, pos, truncated(err)
	}
	if want := binary.LittleEndian.Uint32(trailer); got != want {
		return 0, pos, fmt.Errorf("%w: CRC mismatch (computed %08x, stored %08x)", ErrBadFrame, got, want)
	}
	recs := payload[4+vn:]
	pos = slices.Grow(pos, int(n)) // the count is validated: grow once, not by doubling
	for i := 0; i < int(n); i++ {
		rec := recs[batchPosSize*i:]
		pos = append(pos, model.ObjPos{
			OID: int32(binary.LittleEndian.Uint32(rec[0:4])),
			X:   math.Float64frombits(binary.LittleEndian.Uint64(rec[4:12])),
			Y:   math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20])),
		})
	}
	return t, pos, nil
}

// readUvarint reads a uvarint byte-at-a-time, appending consumed bytes to
// raw (they are part of the CRC-covered frame prefix).
func readUvarint(r *bufio.Reader, raw []byte) (uint64, []byte, error) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			return 0, raw, fmt.Errorf("%w: varint overflow", ErrBadFrame)
		}
		b, err := r.ReadByte()
		if err != nil {
			return 0, raw, truncated(err)
		}
		raw = append(raw, b)
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, raw, nil
		}
	}
}
