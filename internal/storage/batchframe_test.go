package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// encodeFrames concatenates frames for a sequence of (t, positions) ticks.
func encodeFrames(t *testing.T, ticks []testFrame) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, tk := range ticks {
		buf, err = AppendBatchFrame(buf, tk.t, tk.pos)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

type testFrame struct {
	t   int32
	pos []model.ObjPos
}

// decodeFrames decodes a stream to the end, failing the test on any error.
func decodeFrames(t *testing.T, data []byte) []testFrame {
	t.Helper()
	dec := NewBatchFrameReader(bytes.NewReader(data))
	var out []testFrame
	for {
		tt, pos, err := dec.Next(nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(out), err)
		}
		out = append(out, testFrame{t: tt, pos: pos})
	}
}

func randFrame(rng *rand.Rand, t int32) testFrame {
	n := rng.Intn(50)
	pos := make([]model.ObjPos, n)
	for i := range pos {
		pos[i] = model.ObjPos{OID: rng.Int31(), X: rng.NormFloat64() * 100, Y: rng.NormFloat64() * 100}
	}
	return testFrame{t: t, pos: pos}
}

func framesEqual(a, b []testFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].t != b[i].t || len(a[i].pos) != len(b[i].pos) {
			return false
		}
		for j := range a[i].pos {
			p, q := a[i].pos[j], b[i].pos[j]
			// Bit equality, not ==: NaN payloads must round-trip too.
			if p.OID != q.OID ||
				math.Float64bits(p.X) != math.Float64bits(q.X) ||
				math.Float64bits(p.Y) != math.Float64bits(q.Y) {
				return false
			}
		}
	}
	return true
}

func TestBatchFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ticks := []testFrame{
		{t: 0, pos: nil}, // empty snapshot is legal
		{t: -5, pos: []model.ObjPos{{OID: -1, X: math.Inf(1), Y: math.NaN()}}},
	}
	for i := int32(0); i < 20; i++ {
		ticks = append(ticks, randFrame(rng, i))
	}
	data := encodeFrames(t, ticks)
	got := decodeFrames(t, data)
	if !framesEqual(ticks, got) {
		t.Fatalf("round trip mismatch: sent %d frames, got %d", len(ticks), len(got))
	}
}

// TestBatchFrameBufferReuse drives one reader over many frames with a
// caller-owned position buffer and checks both correctness and that the
// decode loop is allocation-free once buffers are warm.
func TestBatchFrameBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ticks []testFrame
	for i := int32(0); i < 64; i++ {
		ticks = append(ticks, randFrame(rng, i))
	}
	data := encodeFrames(t, ticks)

	dec := NewBatchFrameReader(bytes.NewReader(data))
	buf := make([]model.ObjPos, 0, 64)
	for i := range ticks {
		tt, pos, err := dec.Next(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if tt != ticks[i].t || !framesEqual([]testFrame{{t: tt, pos: pos}}, ticks[i:i+1]) {
			t.Fatalf("frame %d mismatch", i)
		}
		buf = pos[:0]
	}
	if _, _, err := dec.Next(buf); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}

	// Steady state: decoding the same stream again through the same reader
	// must not allocate (the frame buffer and position buffer are warm).
	allocs := testing.AllocsPerRun(20, func() {
		dec.Reset(bytes.NewReader(data))
		for {
			_, pos, err := dec.Next(buf[:0])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			buf = pos[:0]
		}
	})
	if allocs > 1 { // bytes.NewReader itself accounts for the one
		t.Fatalf("warm decode allocates %.1f times per stream, want ≤1", allocs)
	}
}

// TestBatchFrameDecodeFromNilGrowsOnce is the server's decode path: every
// tick is decoded into a fresh slice that the shard queue then holds. The
// frame states its count, so the slice is allocated once at that size —
// growing by doubling allocated 3.6× the bytes and left every queued tick
// pinning up to twice what it holds.
func TestBatchFrameDecodeFromNilGrowsOnce(t *testing.T) {
	const n = 1600
	pos := make([]model.ObjPos, n)
	for i := range pos {
		pos[i] = model.ObjPos{OID: int32(i), X: float64(i), Y: 1}
	}
	data, err := AppendBatchFrame(nil, 7, pos)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewBatchFrameReader(bytes.NewReader(data))
	if _, _, err := dec.Next(nil); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	var got []model.ObjPos
	allocs := testing.AllocsPerRun(10, func() {
		dec.Reset(bytes.NewReader(data))
		if _, got, err = dec.Next(nil); err != nil {
			t.Fatal(err)
		}
	})
	// The position slice and bytes.NewReader, plus one more under the race
	// detector; growing by doubling took 14.
	if allocs > 3 {
		t.Fatalf("decoding one frame into nil allocates %.0f times, want the slice once", allocs)
	}
	if len(got) != n || cap(got) > n+n/8 {
		t.Fatalf("decoded %d positions into capacity %d, want about %d", len(got), cap(got), n)
	}
}

// TestBatchFrameTruncation cuts a valid two-frame stream at every byte
// offset: every cut must decode the frames wholly before it and then fail
// with io.ErrUnexpectedEOF (mid-frame) or io.EOF (at a boundary) — never a
// panic, never garbage data.
func TestBatchFrameTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ticks := []testFrame{randFrame(rng, 1), randFrame(rng, 2)}
	data := encodeFrames(t, ticks)
	frame0, err := AppendBatchFrame(nil, ticks[0].t, ticks[0].pos)
	if err != nil {
		t.Fatal(err)
	}
	boundary := len(frame0)
	for cut := 0; cut < len(data); cut++ {
		dec := NewBatchFrameReader(bytes.NewReader(data[:cut]))
		var got int
		for {
			_, _, err := dec.Next(nil)
			if err == nil {
				got++
				continue
			}
			wantClean := cut == 0 || cut == boundary
			if wantClean && err != io.EOF {
				t.Fatalf("cut %d: want io.EOF at frame boundary, got %v", cut, err)
			}
			if !wantClean && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: want io.ErrUnexpectedEOF, got %v", cut, err)
			}
			break
		}
		want := 0
		if cut >= boundary {
			want = 1
		}
		if got != want {
			t.Fatalf("cut %d: decoded %d whole frames, want %d", cut, got, want)
		}
	}
}

// TestBatchFrameCorruption flips every byte of a valid frame in turn; every
// flip must be rejected (CRC or a structural check), and none may panic.
func TestBatchFrameCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := encodeFrames(t, []testFrame{randFrame(rng, 7)})
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		dec := NewBatchFrameReader(bytes.NewReader(mut))
		_, _, err := dec.Next(nil)
		if err == nil {
			// A flip in the payload-length varint can shift the framing so
			// the first "frame" still checks out only if CRC collides —
			// effectively impossible; any success is a real bug.
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestBatchFrameLimits(t *testing.T) {
	if _, err := AppendBatchFrame(nil, 0, make([]model.ObjPos, MaxBatchFramePositions+1)); err == nil {
		t.Fatal("oversized batch encoded")
	}
	// A forged header claiming a huge payload must be rejected before any
	// large allocation happens.
	forged := []byte(batchFrameMagic)
	forged = append(forged, batchFrameVersion)
	forged = binary.AppendUvarint(forged, 1<<40)
	dec := NewBatchFrameReader(bytes.NewReader(forged))
	if _, _, err := dec.Next(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged huge payload: got %v, want ErrBadFrame", err)
	}
	// Bad magic and bad version are structural errors, not truncation.
	for _, raw := range [][]byte{
		[]byte("NOPE\x01\x05"),
		append([]byte(batchFrameMagic), 99, 5),
	} {
		dec := NewBatchFrameReader(bytes.NewReader(raw))
		if _, _, err := dec.Next(nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%q: got %v, want ErrBadFrame", raw, err)
		}
	}
}

// FuzzBatchFrameRoundTrip feeds arbitrary bytes to the decoder (it must
// never panic and never hand back data from a frame that fails its checks),
// then re-encodes whatever decoded and requires the second decode to
// reproduce it bit-for-bit — encode∘decode is the identity on the valid
// subset of any input.
func FuzzBatchFrameRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var seed []byte
	var err error
	for i := int32(0); i < 3; i++ {
		fr := randFrame(rng, i)
		if seed, err = AppendBatchFrame(seed, fr.t, fr.pos); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])      // torn tail
	f.Add([]byte(batchFrameMagic)) // header only
	f.Add([]byte{})                // empty stream
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBatchFrameReader(bytes.NewReader(data))
		var decoded []testFrame
		for {
			tt, pos, err := dec.Next(nil)
			if err != nil {
				break // EOF, truncation or corruption — all fine, no panic
			}
			decoded = append(decoded, testFrame{t: tt, pos: pos})
		}
		var buf []byte
		for _, fr := range decoded {
			var err error
			if buf, err = AppendBatchFrame(buf, fr.t, fr.pos); err != nil {
				t.Fatalf("re-encode decoded frame: %v", err)
			}
		}
		dec2 := NewBatchFrameReader(bytes.NewReader(buf))
		var again []testFrame
		for {
			tt, pos, err := dec2.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode of re-encoded stream failed: %v", err)
			}
			again = append(again, testFrame{t: tt, pos: pos})
		}
		if !framesEqual(decoded, again) {
			t.Fatalf("re-encoded stream decoded differently: %d vs %d frames", len(decoded), len(again))
		}
	})
}
