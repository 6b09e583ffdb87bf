package model

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewObjSetSortsAndDedupes(t *testing.T) {
	s := NewObjSet(5, 1, 3, 1, 5, 2)
	want := ObjSet{1, 2, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewObjSet = %v, want %v", s, want)
	}
	if !s.Valid() {
		t.Fatalf("NewObjSet produced invalid set %v", s)
	}
	if NewObjSet() != nil {
		t.Fatalf("empty NewObjSet should be nil")
	}
}

func TestObjSetContains(t *testing.T) {
	s := NewObjSet(2, 4, 6, 8)
	for _, id := range []int32{2, 4, 6, 8} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	for _, id := range []int32{1, 3, 5, 7, 9, -1} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true, want false", id)
		}
	}
}

func TestObjSetSubsetOf(t *testing.T) {
	cases := []struct {
		s, t ObjSet
		want bool
	}{
		{nil, nil, true},
		{nil, NewObjSet(1), true},
		{NewObjSet(1), nil, false},
		{NewObjSet(1, 3), NewObjSet(1, 2, 3), true},
		{NewObjSet(1, 4), NewObjSet(1, 2, 3), false},
		{NewObjSet(1, 2, 3), NewObjSet(1, 2, 3), true},
		{NewObjSet(0), NewObjSet(1, 2), false},
	}
	for _, c := range cases {
		if got := c.s.SubsetOf(c.t); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestObjSetIntersectUnionMinus(t *testing.T) {
	a := NewObjSet(1, 2, 3, 5, 8)
	b := NewObjSet(2, 3, 4, 8, 9)
	if got := a.Intersect(b); !got.Equal(NewObjSet(2, 3, 8)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.IntersectSize(b); got != 3 {
		t.Errorf("IntersectSize = %d, want 3", got)
	}
	if got := a.Union(b); !got.Equal(NewObjSet(1, 2, 3, 4, 5, 8, 9)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(nil); got != nil {
		t.Errorf("Intersect(nil) = %v, want nil", got)
	}
}

// Property: set operations agree with a map-based model.
func TestObjSetOpsQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var ai, bi []int32
		for _, x := range xs {
			ai = append(ai, int32(x))
		}
		for _, y := range ys {
			bi = append(bi, int32(y))
		}
		a, b := NewObjSet(ai...), NewObjSet(bi...)
		am := map[int32]bool{}
		bm := map[int32]bool{}
		for _, x := range a {
			am[x] = true
		}
		for _, y := range b {
			bm[y] = true
		}
		inter := a.Intersect(b)
		if !inter.Valid() {
			return false
		}
		for _, x := range inter {
			if !am[x] || !bm[x] {
				return false
			}
		}
		cnt := 0
		for x := range am {
			if bm[x] {
				cnt++
			}
		}
		if cnt != len(inter) || cnt != a.IntersectSize(b) {
			return false
		}
		u := a.Union(b)
		if !u.Valid() || len(u) != len(am)+len(bm)-cnt {
			return false
		}
		return inter.SubsetOf(a) && inter.SubsetOf(b) && a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Keys are equal exactly when the sets are, whichever byte of an id differs,
// and appending reuses the buffer it is given.
func TestObjSetAppendKey(t *testing.T) {
	sets := []ObjSet{nil, {1}, {2}, {1, 2}, {256}, {1 << 16}, {1 << 24}, {-1}, {-1, 1}, {1, 256}}
	for i, a := range sets {
		for j, b := range sets {
			if got := string(a.AppendKey(nil)) == string(b.AppendKey(nil)); got != (i == j) {
				t.Errorf("keys of %v and %v equal = %v", a, b, got)
			}
		}
	}
	buf := make([]byte, 0, 64)
	if key := (ObjSet{7, 9}).AppendKey(buf); len(key) != 8 || &key[0] != &buf[:1][0] {
		t.Errorf("AppendKey should append 4 bytes per id into the given buffer, got %d bytes", len(key))
	}
}

func TestIntervalOps(t *testing.T) {
	iv := Interval{Start: 3, End: 7}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if (Interval{Start: 4, End: 3}).Len() != 0 {
		t.Errorf("inverted interval should have Len 0")
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Errorf("Contains boundary behaviour wrong")
	}
	if !iv.Overlaps(Interval{Start: 7, End: 10}) || iv.Overlaps(Interval{Start: 8, End: 10}) {
		t.Errorf("Overlaps boundary behaviour wrong")
	}
}

func TestConvoyOrdering(t *testing.T) {
	a := NewConvoy(NewObjSet(1, 2, 3), 0, 9)
	b := NewConvoy(NewObjSet(1, 2), 2, 8)
	c := NewConvoy(NewObjSet(1, 4), 2, 8)
	if !b.SubConvoyOf(a) || !b.StrictSubConvoyOf(a) {
		t.Errorf("b should be strict sub-convoy of a")
	}
	if a.SubConvoyOf(b) {
		t.Errorf("a should not be sub-convoy of b")
	}
	if c.SubConvoyOf(a) {
		t.Errorf("c has object 4 not in a")
	}
	if !a.SubConvoyOf(a) || a.StrictSubConvoyOf(a) {
		t.Errorf("reflexivity wrong")
	}
	if a.Len() != 10 || a.Size() != 3 {
		t.Errorf("Len/Size wrong: %d %d", a.Len(), a.Size())
	}
}

func TestSortConvoysCanonical(t *testing.T) {
	cs := []Convoy{
		NewConvoy(NewObjSet(2, 3), 1, 5),
		NewConvoy(NewObjSet(1, 2), 0, 5),
		NewConvoy(NewObjSet(1, 3), 1, 5),
		NewConvoy(NewObjSet(1, 2, 3), 1, 4),
	}
	SortConvoys(cs)
	if cs[0].Start != 0 {
		t.Fatalf("first convoy should start at 0: %v", cs)
	}
	if !ConvoysEqual(
		[]Convoy{NewConvoy(NewObjSet(1), 0, 1), NewConvoy(NewObjSet(2), 0, 1)},
		[]Convoy{NewConvoy(NewObjSet(2), 0, 1), NewConvoy(NewObjSet(1), 0, 1)},
	) {
		t.Fatalf("ConvoysEqual should ignore order")
	}
	if ConvoysEqual(
		[]Convoy{NewConvoy(NewObjSet(1), 0, 1)},
		[]Convoy{NewConvoy(NewObjSet(1), 0, 2)},
	) {
		t.Fatalf("ConvoysEqual false positive")
	}
}

func TestCoverFilter(t *testing.T) {
	big := NewConvoy(NewObjSet(1, 2, 3), 0, 10)
	small := NewConvoy(NewObjSet(1, 2), 2, 8)
	longer := NewConvoy(NewObjSet(1, 2), 0, 11)
	other := NewConvoy(NewObjSet(4, 5), 0, 10)
	var c Cover
	got := c.Filter([]Convoy{small, big, small, other, longer})
	if want := []Convoy{big, other, longer}; !ConvoysEqual(got, want) {
		t.Fatalf("Filter = %v, want %v", got, want)
	}
	if !c.Covers(small) || !c.Covers(big) || c.Covers(NewConvoy(NewObjSet(9), 0, 0)) {
		t.Fatalf("Covers wrong after Filter")
	}
	// A second Filter starts from an empty cover.
	if got := c.Filter([]Convoy{small}); len(got) != 1 || !got[0].Equal(small) || c.Covers(big) {
		t.Fatalf("second Filter = %v, Covers(big) = %v", got, c.Covers(big))
	}
}

// Property: Filter's output holds no duplicate and no strict sub-convoy of
// another member, and covers every input convoy.
func TestCoverFilterInvariantQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var c Cover
	for iter := 0; iter < 200; iter++ {
		var in []Convoy
		for i := 0; i < 30; i++ {
			n := rng.Intn(4) + 1
			ids := make([]int32, n)
			for j := range ids {
				ids[j] = int32(rng.Intn(6))
			}
			start := int32(rng.Intn(8))
			end := start + int32(rng.Intn(8))
			in = append(in, NewConvoy(NewObjSet(ids...), start, end))
		}
		items := c.Filter(slices.Clone(in))
		for i := range items {
			for j := range items {
				if i != j && items[i].SubConvoyOf(items[j]) {
					t.Fatalf("iter %d: %v sub-convoy of %v", iter, items[i], items[j])
				}
			}
		}
		for _, v := range in {
			if !c.Covers(v) {
				t.Fatalf("iter %d: input convoy %v not covered", iter, v)
			}
		}
	}
}

func TestMaximal(t *testing.T) {
	in := []Convoy{
		NewConvoy(NewObjSet(1, 2), 0, 5),
		NewConvoy(NewObjSet(1, 2, 3), 0, 5),
		NewConvoy(NewObjSet(1, 2), 0, 6),
	}
	before := slices.Clone(in)
	out := Maximal(in)
	want := []Convoy{in[1], in[2]}
	if !slices.EqualFunc(out, want, Convoy.Equal) {
		t.Fatalf("Maximal = %v, want %v in canonical order", out, want)
	}
	if !slices.EqualFunc(in, before, Convoy.Equal) {
		t.Fatalf("Maximal reordered its input: %v", in)
	}
	if out := Maximal(nil); out == nil || len(out) != 0 {
		t.Fatalf("Maximal(nil) = %#v, want an empty slice", out)
	}
}

func TestDatasetBasics(t *testing.T) {
	pts := []Point{
		{OID: 1, T: 5, X: 0, Y: 0},
		{OID: 2, T: 5, X: 1, Y: 1},
		{OID: 1, T: 6, X: 2, Y: 2},
		{OID: 3, T: 7, X: 3, Y: 3},
	}
	d := NewDataset(pts)
	ts, te := d.TimeRange()
	if ts != 5 || te != 7 {
		t.Fatalf("TimeRange = [%d,%d]", ts, te)
	}
	if d.NumPoints() != 4 {
		t.Fatalf("NumPoints=%d", d.NumPoints())
	}
	snap := d.Snapshot(5)
	if len(snap) != 2 || snap[0].OID != 1 || snap[1].OID != 2 {
		t.Fatalf("Snapshot(5) = %v", snap)
	}
	if d.Snapshot(4) != nil || d.Snapshot(8) != nil {
		t.Fatalf("out-of-range snapshot should be nil")
	}
	if got := d.Objects(); !got.Equal(NewObjSet(1, 2, 3)) {
		t.Fatalf("Objects = %v", got)
	}
}

func TestDatasetDedup(t *testing.T) {
	d := NewDataset([]Point{
		{OID: 1, T: 0, X: 1, Y: 1},
		{OID: 1, T: 0, X: 9, Y: 9},
	})
	snap := d.Snapshot(0)
	if len(snap) != 1 {
		t.Fatalf("duplicate (oid,t) should be deduped: %v", snap)
	}
	if snap[0].X != 9 {
		t.Fatalf("dedup should keep last occurrence, got %v", snap[0])
	}
}

func TestCanonSnapshot(t *testing.T) {
	// Already canonical: recognised, and returned as given.
	canon := []ObjPos{{OID: -4}, {OID: 0}, {OID: 3}}
	if !IsCanonSnapshot(canon) || !IsCanonSnapshot(nil) {
		t.Fatalf("ascending OIDs (and the empty snapshot) are canonical")
	}
	if got := CanonSnapshot(canon); len(got) != 3 || &got[0] != &canon[0] {
		t.Fatalf("canonical input should come back untouched, got %v", got)
	}
	// Unsorted with duplicates: sorted in place, last occurrence wins.
	pos := []ObjPos{{OID: 7, X: 1}, {OID: 2, X: 1}, {OID: 7, X: 2}, {OID: 2, X: 2}, {OID: 7, X: 3}, {OID: 5}}
	if IsCanonSnapshot(pos) || IsCanonSnapshot([]ObjPos{{OID: 1}, {OID: 1}}) {
		t.Fatalf("unsorted or duplicate OIDs are not canonical")
	}
	want := []ObjPos{{OID: 2, X: 2}, {OID: 5}, {OID: 7, X: 3}}
	if got := CanonSnapshot(pos); !reflect.DeepEqual(got, want) || &got[0] != &pos[0] {
		t.Fatalf("CanonSnapshot = %v, want %v in place", got, want)
	}
}

func TestDatasetFetch(t *testing.T) {
	var pts []Point
	for oid := int32(0); oid < 20; oid += 2 {
		pts = append(pts, Point{OID: oid, T: 3, X: float64(oid), Y: 0})
	}
	d := NewDataset(pts)
	got := d.Fetch(3, NewObjSet(0, 1, 2, 7, 18, 19))
	if len(got) != 3 || got[0].OID != 0 || got[1].OID != 2 || got[2].OID != 18 {
		t.Fatalf("Fetch = %v", got)
	}
	if d.Fetch(99, NewObjSet(1)) != nil {
		t.Fatalf("Fetch out of range should be nil")
	}
}

// FuzzDatasetFetch checks the galloping Fetch against a map. The snapshot
// has up to 2047 rows, seeded, with OIDs from 64 upward and gaps of 1–4;
// the query set starts up to 255 below the first row, and each further
// byte is a gap of 2^(b mod 11), 1 to 2^10, so queries land before the
// first row, between rows, on rows, in runs and past the last row.
func FuzzDatasetFetch(f *testing.F) {
	f.Add(int64(1), uint16(300), []byte{10, 0, 0, 1, 2, 10, 3, 0, 7})
	f.Add(int64(2), uint16(1), []byte{0, 0, 0})
	f.Add(int64(3), uint16(2000), []byte{255, 10, 10, 10, 9, 9, 9, 8, 8, 8})
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, query []byte) {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point
		at := map[int32]ObjPos{}
		oid := int32(64)
		for range rows % 2048 {
			p := Point{OID: oid, T: 5, X: rng.Float64(), Y: rng.Float64()}
			pts = append(pts, p)
			at[oid] = ObjPos{OID: oid, X: p.X, Y: p.Y}
			oid += 1 + rng.Int31n(4)
		}
		d := NewDataset(pts)
		if len(query) == 0 {
			return
		}
		var oids []int32
		for q, b := 64-int32(query[0]), query[1:]; ; b = b[1:] {
			oids = append(oids, q)
			if len(b) == 0 {
				break
			}
			q += 1 << (b[0] % 11)
		}
		set := NewObjSet(oids...)
		var want []ObjPos
		for _, q := range set {
			if p, ok := at[q]; ok {
				want = append(want, p)
			}
		}
		if got := d.Fetch(5, set); !slices.Equal(got, want) {
			t.Fatalf("Fetch(%v) over %d rows = %v, want %v", set, len(pts), got, want)
		}
	})
}

func TestDatasetRestrict(t *testing.T) {
	var pts []Point
	for t32 := int32(0); t32 < 10; t32++ {
		for oid := int32(0); oid < 5; oid++ {
			pts = append(pts, Point{OID: oid, T: t32, X: float64(oid), Y: float64(t32)})
		}
	}
	d := NewDataset(pts)
	r := d.Restrict(NewObjSet(1, 3), Interval{Start: 2, End: 4})
	ts, te := r.TimeRange()
	if ts != 2 || te != 4 || r.NumPoints() != 6 {
		t.Fatalf("Restrict wrong: %v", r)
	}
	if got := r.Objects(); !got.Equal(NewObjSet(1, 3)) {
		t.Fatalf("Restrict objects = %v", got)
	}
	// Clamping.
	r2 := d.Restrict(NewObjSet(0), Interval{Start: -5, End: 100})
	ts, te = r2.TimeRange()
	if ts != 0 || te != 9 {
		t.Fatalf("Restrict should clamp: [%d,%d]", ts, te)
	}
}

func TestDatasetPointsRoundTrip(t *testing.T) {
	pts := []Point{
		{OID: 2, T: 1, X: 1, Y: 2},
		{OID: 1, T: 0, X: 0, Y: 0},
		{OID: 1, T: 1, X: 3, Y: 4},
	}
	d := NewDataset(pts)
	got := d.Points()
	want := []Point{
		{OID: 1, T: 0, X: 0, Y: 0},
		{OID: 1, T: 1, X: 3, Y: 4},
		{OID: 2, T: 1, X: 1, Y: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Points = %v, want %v", got, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	d := NewDataset(nil)
	ts, te := d.TimeRange()
	if te >= ts {
		t.Fatalf("empty dataset should have inverted range")
	}
	if d.NumPoints() != 0 {
		t.Fatalf("empty dataset counts wrong")
	}
}

func TestDist(t *testing.T) {
	a := ObjPos{X: 0, Y: 0}
	b := ObjPos{X: 3, Y: 4}
	if Dist(a, b) != 5 {
		t.Fatalf("Dist = %f", Dist(a, b))
	}
	if DistSq(a, b) != 25 {
		t.Fatalf("DistSq = %f", DistSq(a, b))
	}
}
