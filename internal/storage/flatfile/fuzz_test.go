package flatfile

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// FuzzFlatFileRoundTrip decodes arbitrary bytes into a point set, writes it
// through the flat-file codec, reads it back with Load and requires exact
// equality with the in-memory dataset. It also cross-checks the key codec:
// DecodeKey∘EncodeKey is the identity and the byte order of encoded keys
// equals the numeric order of (t, oid) — the property the writer's
// sortedness check and every engine's key order rely on.
//
// Input encoding: 8-byte chunks → t i16 (clamped to a small range so
// snapshots overlap), oid i16, x i16, y i16, all little-endian.
func FuzzFlatFileRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 10, 0, 20, 0})
	f.Add([]byte{
		0, 0, 1, 0, 10, 0, 20, 0,
		0, 0, 2, 0, 11, 0, 21, 0,
		1, 0, 1, 0, 12, 0, 22, 0,
		255, 255, 255, 255, 255, 255, 255, 255,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPoints = 512
		var pts []model.Point
		for i := 0; i+8 <= len(data) && len(pts) < maxPoints; i += 8 {
			pts = append(pts, model.Point{
				T:   int32(int16(binary.LittleEndian.Uint16(data[i:]))) % 50,
				OID: int32(int16(binary.LittleEndian.Uint16(data[i+2:]))),
				X:   float64(int16(binary.LittleEndian.Uint16(data[i+4:]))),
				Y:   float64(int16(binary.LittleEndian.Uint16(data[i+6:]))),
			})
		}
		ds := model.NewDataset(pts) // canonical: sorted by (t, oid), deduped

		// Key codec: identity and order preservation.
		for _, p := range pts {
			k := storage.EncodeKey(p.T, p.OID)
			dt, doid := storage.DecodeKey(k[:])
			if dt != p.T || doid != p.OID {
				t.Fatalf("DecodeKey(EncodeKey(%d,%d)) = (%d,%d)", p.T, p.OID, dt, doid)
			}
		}
		for i := 1; i < len(pts); i++ {
			a, b := pts[i-1], pts[i]
			ka, kb := storage.EncodeKey(a.T, a.OID), storage.EncodeKey(b.T, b.OID)
			numLess := a.T < b.T || (a.T == b.T && a.OID < b.OID)
			bytesLess := string(ka[:]) < string(kb[:])
			numEq := a.T == b.T && a.OID == b.OID
			if !numEq && numLess != bytesLess {
				t.Fatalf("key order mismatch: (%d,%d) vs (%d,%d): numeric %v, bytes %v",
					a.T, a.OID, b.T, b.OID, numLess, bytesLess)
			}
		}

		path := filepath.Join(t.TempDir(), "fuzz.k2f")
		if err := WriteDataset(path, ds); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		wantPts, gotPts := ds.Points(), back.Points()
		if len(wantPts) != len(gotPts) {
			t.Fatalf("round-trip point count %d, want %d", len(gotPts), len(wantPts))
		}
		for i := range wantPts {
			if wantPts[i] != gotPts[i] {
				t.Fatalf("point %d: %+v, want %+v", i, gotPts[i], wantPts[i])
			}
		}
		wantTs, wantTe := ds.TimeRange()
		gotTs, gotTe := back.TimeRange()
		if gotTs != wantTs || gotTe != wantTe {
			t.Fatalf("time range [%d,%d], want [%d,%d]", gotTs, gotTe, wantTs, wantTe)
		}
	})
}
