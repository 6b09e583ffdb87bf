package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a bool-slice model used to verify the bitset implementation.
type naive []bool

func (n naive) maxRun() int {
	best, cur := 0, 0
	for _, b := range n {
		if b {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

func (n naive) runs(minLen int) [][2]int {
	if minLen < 1 {
		minLen = 1
	}
	var out [][2]int
	start := -1
	for i, b := range n {
		if b {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minLen {
			out = append(out, [2]int{start, i - 1})
		}
		start = -1
	}
	if start >= 0 && len(n)-start >= minLen {
		out = append(out, [2]int{start, len(n) - 1})
	}
	return out
}

// count returns the number of set bits, read one by one.
func count(b *Bits) int {
	n := 0
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			n++
		}
	}
	return n
}

func TestBasicSetGetClear(t *testing.T) {
	b := New(130)
	if b.n != 130 || count(b) != 0 {
		t.Fatalf("New(130): capacity %d with %d bits set, want 130 all clear", b.n, count(b))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Get(%d) after Set = false", i)
		}
	}
	if count(b) != 8 {
		t.Fatalf("count = %d, want 8", count(b))
	}
	// Out-of-range is ignored, not panicking.
	b.Set(-1)
	b.Set(130)
	if b.Get(-1) || b.Get(130) || count(b) != 8 {
		t.Fatalf("out-of-range Set should be ignored and Get false")
	}
}

func TestMaxRunEdges(t *testing.T) {
	b := New(0)
	if b.MaxRun() != 0 {
		t.Fatalf("empty MaxRun = %d", b.MaxRun())
	}
	b = New(200)
	if b.MaxRun() != 0 {
		t.Fatalf("clear MaxRun = %d", b.MaxRun())
	}
	b.SetRange(0, 199)
	if b.MaxRun() != 200 {
		t.Fatalf("full MaxRun = %d", b.MaxRun())
	}
	b = New(200)
	b.SetRange(60, 70) // crosses word boundary
	if b.MaxRun() != 11 {
		t.Fatalf("cross-word MaxRun = %d, want 11", b.MaxRun())
	}
	b.Set(72)
	if b.MaxRun() != 11 {
		t.Fatalf("MaxRun after isolated bit = %d", b.MaxRun())
	}
}

func TestRunsMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, minLenRaw uint8) bool {
		n := int(nRaw)%150 + 1
		minLen := int(minLenRaw)%5 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		m := make(naive, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
				m[i] = true
			}
		}
		if b.MaxRun() != m.maxRun() {
			return false
		}
		got, want := b.Runs(minLen), m.runs(minLen)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		cnt := 0
		for _, v := range m {
			if v {
				cnt++
			}
		}
		return cnt == count(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRunsMinLen(t *testing.T) {
	b := New(20)
	b.SetRange(0, 2)  // len 3
	b.SetRange(5, 5)  // len 1
	b.SetRange(8, 13) // len 6
	runs := b.Runs(3)
	if len(runs) != 2 || runs[0] != [2]int{0, 2} || runs[1] != [2]int{8, 13} {
		t.Fatalf("Runs(3) = %v", runs)
	}
	if got := b.Runs(0); len(got) != 3 {
		t.Fatalf("Runs(0) should clamp to 1: %v", got)
	}
}

func TestSetRangeClamps(t *testing.T) {
	b := New(10)
	b.SetRange(-5, 100)
	if count(b) != 10 {
		t.Fatalf("SetRange should clamp, count = %d", count(b))
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-3)
	if b.n != 0 || len(b.words) != 0 || b.MaxRun() != 0 {
		t.Fatalf("New(-3) should be empty")
	}
}

// randomBits builds a bitset and its bool-slice model with density p.
func randomBits(rng *rand.Rand, n int, p float64) (*Bits, naive) {
	b := New(n)
	m := make(naive, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
			m[i] = true
		}
	}
	return b, m
}

func TestWordParallelOpsMatchNaiveQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		a, ma := randomBits(rng, n, 0.4)
		b, mb := randomBits(rng, n, 0.4)

		// AndOf must leave exactly the common bits and report their count.
		scratch := New(n)
		scratch.SetRange(0, n-1) // stale contents must be overwritten
		got := scratch.AndOf(a, b)
		inter := 0
		for i := 0; i < n; i++ {
			if scratch.Get(i) != (ma[i] && mb[i]) {
				return false
			}
			if ma[i] && mb[i] {
				inter++
			}
		}
		return got == inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAndOfAliasing(t *testing.T) {
	a, b := New(130), New(130)
	a.SetRange(0, 100)
	b.SetRange(50, 129)
	if n := a.AndOf(a, b); n != 51 {
		t.Fatalf("aliased AndOf count = %d, want 51", n)
	}
	for i := 0; i < 130; i++ {
		if a.Get(i) != (i >= 50 && i <= 100) {
			t.Fatalf("aliased AndOf bit %d wrong", i)
		}
	}
}
