package model

import (
	"bytes"
	"testing"

	"repro/internal/bitset"
)

// fuzzSet decodes raw fuzz bytes into an ObjSet: consecutive byte pairs
// become ids up to 2¹⁶, so universes routinely span multiple 64-bit words
// and ids are sparse (the interner must never assume contiguity).
func fuzzSet(raw []byte) ObjSet {
	var ids []int32
	for i := 0; i+1 < len(raw); i += 2 {
		ids = append(ids, int32(raw[i])<<8|int32(raw[i+1]))
	}
	return NewObjSet(ids...)
}

// FuzzDenseSetVsObjSet cross-checks every operation of the interned dense
// set engine (bitset.Bits over a model.Interner universe) against the
// sorted-slice ObjSet reference implementation. The mining hot path trusts
// the two to be interchangeable; any divergence here would mean silently
// wrong convoys.
func FuzzDenseSetVsObjSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 2, 0, 3, 0, 4})
	f.Add([]byte{}, []byte{0, 7})
	f.Add([]byte{1, 255, 1, 254}, []byte{1, 255, 1, 254})
	f.Add([]byte{0, 0, 255, 255}, []byte{128, 0})
	f.Add([]byte{0, 1, 0, 2}, []byte{0, 64, 0, 65, 0, 66, 0, 192})
	f.Fuzz(func(t *testing.T, araw, braw []byte) {
		a, b := fuzzSet(araw), fuzzSet(braw)
		in := Intern(Universe(nil, []ObjSet{a, b}))
		da, db := in.Encode(a, nil), in.Encode(b, nil)

		// Round trip: both inputs are subsets of the universe.
		if !in.Decode(da).Equal(a) || !in.Decode(db).Equal(b) {
			t.Fatalf("round trip broken: %v / %v", a, b)
		}

		// Intersection: fused AND+count, materialization, threshold tests.
		scratch := bitset.New(in.Len())
		wantInter := a.Intersect(b)
		if got := scratch.AndOf(da, db); got != a.IntersectSize(b) || got != len(wantInter) {
			t.Fatalf("AndOf count = %d, want %d", got, len(wantInter))
		}
		if got := in.Decode(scratch); !got.Equal(wantInter) {
			t.Fatalf("dense intersect = %v, want %v", got, wantInter)
		}
		if da.AndCount(db) != len(wantInter) {
			t.Fatalf("AndCount = %d, want %d", da.AndCount(db), len(wantInter))
		}

		// Union.
		wantUnion := a.Union(b)
		if got := scratch.OrOf(da, db); got != len(wantUnion) {
			t.Fatalf("OrOf count = %d, want %d", got, len(wantUnion))
		}
		if got := in.Decode(scratch); !got.Equal(wantUnion) {
			t.Fatalf("dense union = %v, want %v", got, wantUnion)
		}

		// Subset, both directions.
		if da.SubsetOf(db) != a.SubsetOf(b) || db.SubsetOf(da) != b.SubsetOf(a) {
			t.Fatalf("dense subset disagrees: %v ⊆ %v", a, b)
		}

		// Size with early exit.
		for m := 0; m <= len(a)+2; m++ {
			if da.CountAtLeast(m) != (len(a) >= m) {
				t.Fatalf("CountAtLeast(%d) wrong for |a| = %d", m, len(a))
			}
		}

		// Key: equal sets ⇔ equal keys (under one universe).
		sameKey := bytes.Equal(da.AppendKey(nil), db.AppendKey(nil))
		if sameKey != a.Equal(b) {
			t.Fatalf("AppendKey equality (%v) disagrees with set equality (%v)", sameKey, a.Equal(b))
		}

		// Encoding b under a's universe must project away everything not in
		// a — i.e. produce exactly a ∩ b.
		inA := Intern(a)
		if got := inA.Decode(inA.Encode(b, nil)); !got.Equal(wantInter) {
			t.Fatalf("projection encode = %v, want %v", got, wantInter)
		}
	})
}
