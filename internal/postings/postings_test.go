package postings

import (
	"slices"
	"testing"

	"repro/internal/model"
)

// Three overlapping sets over keys 0…3 (one of them empty), then a rebuild
// over fewer sets in the same Lists and Index: every key lists the sets that
// hold it, ascending, nothing of the first build survives the second, and
// the Index over the same sets, as objects 10·k+7, reports for every query
// — the sets themselves and queries with objects no set holds — exactly the
// sets with |q ∩ s| > 0, in set order, with that count.
func TestBuild(t *testing.T) {
	var p Lists
	var x Index
	obj := func(k int32) int32 { return 10*k + 7 }
	check := func(sets [][]int32, n int, want [][]int32) {
		t.Helper()
		var flat []int32
		for _, s := range sets {
			flat = append(flat, s...)
		}
		p.Build(n, flat, len(sets), func(i int) int { return len(sets[i]) })
		for k, w := range want {
			if got := p.Of(int32(k)); !slices.Equal(got, w) {
				t.Fatalf("sets %v: key %d lists %v, want %v", sets, k, got, w)
			}
		}

		family := make([]model.ObjSet, len(sets))
		for i, s := range sets {
			for _, k := range s {
				family[i] = append(family[i], obj(k))
			}
		}
		x.Build(len(family), func(i int) model.ObjSet { return family[i] })
		queries := append(slices.Clone(family),
			model.NewObjSet(obj(0), obj(1), obj(2), obj(3)),
			model.NewObjSet(1, obj(2), 500),
			model.NewObjSet(1, 2),
			nil)
		for _, q := range queries {
			var want []Hit
			for j, s := range family {
				if n := q.IntersectSize(s); n > 0 {
					want = append(want, Hit{Set: int32(j), N: int32(n)})
				}
			}
			if got := x.Overlaps(q); !slices.Equal(got, want) {
				t.Fatalf("sets %v: query %v overlaps %v, want %v", sets, q, got, want)
			}
			qs := x.QuerySlots()
			if len(qs) != len(q) {
				t.Fatalf("sets %v: query %v has %d slots", sets, q, len(qs))
			}
			for i, o := range q {
				held := slices.ContainsFunc(family, func(s model.ObjSet) bool { return s.Contains(o) })
				if held != (qs[i] >= 0) {
					t.Fatalf("sets %v: member %d of query %v has slot %d", sets, o, q, qs[i])
				}
				for j, s := range family {
					if held && x.Holds(int32(j), qs[i]) != s.Contains(o) {
						t.Fatalf("sets %v: Holds(%d, slot of %d) = %v", sets, j, o, !s.Contains(o))
					}
				}
			}
		}
		if got, want := len(x.Slots()), len(flat); got != want {
			t.Fatalf("sets %v: %d member slots, want %d", sets, got, want)
		}
		for _, s := range x.Slots() {
			if s < 0 || int(s) >= x.NumSlots() {
				t.Fatalf("sets %v: slot %d outside [0, %d)", sets, s, x.NumSlots())
			}
		}
	}
	check([][]int32{{0, 1, 2}, {2, 3}, {}, {1, 2}}, 4, [][]int32{{0}, {0, 3}, {0, 1, 3}, {1}})
	check([][]int32{{1}, {0, 1}}, 3, [][]int32{{1}, {0, 1}, {}})
	check([][]int32{{0, 1, 2, 3}, {0, 1, 2, 3}, {3}}, 4, [][]int32{{0, 1}, {0, 1}, {0, 1}, {0, 1, 2}})
	check(nil, 0, nil)
}
