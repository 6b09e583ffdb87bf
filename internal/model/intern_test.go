package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestInternerRoundTrip(t *testing.T) {
	universe := NewObjSet(3, 7, 9, 40, 41, 1000)
	in := Intern(universe)
	if in.Len() != 6 {
		t.Fatalf("Len = %d", in.Len())
	}
	for i, id := range universe {
		if in.OID(i) != id {
			t.Fatalf("OID(%d) = %d", i, in.OID(i))
		}
		if idx, ok := in.Index(id); !ok || idx != i {
			t.Fatalf("Index(%d) = %d,%v", id, idx, ok)
		}
	}
	if _, ok := in.Index(8); ok {
		t.Fatalf("Index(8) should miss")
	}

	s := NewObjSet(7, 40, 1000)
	b := in.Encode(s, nil)
	if got := in.Decode(b); !got.Equal(s) {
		t.Fatalf("round trip: got %v want %v", got, s)
	}
	if !b.Get(1) || b.Get(0) {
		t.Fatalf("encode set the wrong bits")
	}
}

// Encoding drops ids outside the universe — the projection the hop-window
// miners rely on (a candidate's members that left the window simply vanish
// from the dense view).
func TestInternerEncodeProjects(t *testing.T) {
	in := Intern(NewObjSet(5, 6, 7))
	b := in.Encode(NewObjSet(1, 6, 9), nil)
	if want := NewObjSet(6); !in.Decode(b).Equal(want) {
		t.Fatalf("projection: got %v want %v", in.Decode(b), want)
	}
	// Empty universe: everything projects away.
	empty := Intern(nil)
	if eb := empty.Encode(NewObjSet(1, 2), nil); eb.Any() || eb.Len() != 0 {
		t.Fatalf("empty universe should produce the empty set")
	}
}

func TestInternerEncodeReusesBuffer(t *testing.T) {
	in := Intern(NewObjSet(1, 2, 3, 4, 5))
	buf := bitset.New(999)
	b := in.Encode(NewObjSet(2, 4), buf)
	if b != buf {
		t.Fatalf("Encode should reuse the passed buffer")
	}
	if b.Len() != 5 || b.Count() != 2 {
		t.Fatalf("len=%d count=%d", b.Len(), b.Count())
	}
	// A smaller follow-up encode must not see stale bits.
	in2 := Intern(NewObjSet(10))
	if b2 := in2.Encode(nil, buf); b2.Any() {
		t.Fatalf("stale bits survived Resize")
	}
}

func TestUniverse(t *testing.T) {
	u := Universe(nil,
		[]ObjSet{NewObjSet(5, 1), NewObjSet(9)},
		[]ObjSet{NewObjSet(1, 7)},
	)
	if want := NewObjSet(1, 5, 7, 9); !u.Equal(want) {
		t.Fatalf("Universe = %v, want %v", u, want)
	}
	// Buffer reuse: the returned slice may alias dst's backing array.
	u2 := Universe(u, []ObjSet{NewObjSet(2, 3)})
	if want := NewObjSet(2, 3); !u2.Equal(want) {
		t.Fatalf("Universe reuse = %v, want %v", u2, want)
	}
	if len(Universe(nil)) != 0 {
		t.Fatalf("empty Universe should be empty")
	}
}

// Dense encode/decode must agree with the sorted-slice reference algebra on
// random sets over random universes.
func TestDenseAlgebraMatchesObjSetQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%60 + 1
		pick := func(p float64) ObjSet {
			var out []int32
			for id := 0; id < n; id++ {
				if rng.Float64() < p {
					out = append(out, int32(id*3)) // sparse ids, not 0..n
				}
			}
			return NewObjSet(out...)
		}
		a, b := pick(0.4), pick(0.4)
		in := Intern(Universe(nil, []ObjSet{a, b}))
		da, db := in.Encode(a, nil), in.Encode(b, nil)
		scratch := bitset.New(in.Len())

		if got := scratch.AndOf(da, db); got != a.IntersectSize(b) {
			return false
		}
		if !in.Decode(scratch).Equal(a.Intersect(b)) {
			return false
		}
		scratch.OrOf(da, db)
		if !in.Decode(scratch).Equal(a.Union(b)) {
			return false
		}
		return da.SubsetOf(db) == a.SubsetOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
