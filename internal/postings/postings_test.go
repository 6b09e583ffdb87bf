package postings

import (
	"slices"
	"testing"
)

// Three overlapping sets over keys 0…3, then a rebuild over other sets in
// the same Lists: every key lists the sets that hold it, ascending, and
// nothing of the first build survives the second.
func TestBuild(t *testing.T) {
	var p Lists
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
	}
	check([][]int32{{0, 1, 2}, {2, 3}, {}, {1, 2}}, 4, [][]int32{{0}, {0, 3}, {0, 1, 3}, {1}})
	check([][]int32{{1}, {0, 1}}, 3, [][]int32{{1}, {0, 1}, {}})
	check(nil, 0, nil)
}
