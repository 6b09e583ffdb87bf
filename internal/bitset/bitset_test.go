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

func TestBasicSetGetClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Get(%d) after Set = false", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatalf("Get(64) after Clear = true")
	}
	// Out-of-range is ignored, not panicking.
	b.Set(-1)
	b.Set(130)
	b.Clear(-1)
	if b.Get(-1) || b.Get(130) {
		t.Fatalf("out-of-range Get should be false")
	}
}

func TestAndEqualClone(t *testing.T) {
	a, b := New(100), New(100)
	a.SetRange(10, 50)
	b.SetRange(40, 90)
	c := a.AndNew(b)
	for i := 0; i < 100; i++ {
		want := i >= 40 && i <= 50
		if c.Get(i) != want {
			t.Fatalf("AndNew bit %d = %v, want %v", i, c.Get(i), want)
		}
	}
	if !c.Equal(c.Clone()) {
		t.Fatalf("clone should be equal")
	}
	if c.Equal(New(101)) {
		t.Fatalf("different capacity should not be equal")
	}
	// And mutates in place.
	a.And(b)
	if !a.Equal(c) {
		t.Fatalf("And in place disagrees with AndNew")
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
		return cnt == b.Count()
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
	if b.Count() != 10 {
		t.Fatalf("SetRange should clamp, Count = %d", b.Count())
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-3)
	if b.Len() != 0 || b.Count() != 0 {
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
	f := func(seed int64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw)%200 + 1
		m := int(mRaw) % 12
		rng := rand.New(rand.NewSource(seed))
		a, ma := randomBits(rng, n, 0.4)
		b, mb := randomBits(rng, n, 0.4)

		interCount, unionCount, subset := 0, 0, true
		for i := 0; i < n; i++ {
			if ma[i] && mb[i] {
				interCount++
			}
			if ma[i] || mb[i] {
				unionCount++
			}
			if ma[i] && !mb[i] {
				subset = false
			}
		}

		scratch := New(n)
		if got := scratch.AndOf(a, b); got != interCount {
			return false
		}
		if scratch.Count() != interCount {
			return false
		}
		if a.AndCount(b) != interCount {
			return false
		}
		if a.CountAtLeast(m) != (a.Count() >= m) {
			return false
		}
		if scratch.OrOf(a, b); scratch.Count() != unionCount {
			return false
		}
		if a.Clone().Or(b).Count() != unionCount {
			return false
		}
		if a.SubsetOf(b) != subset {
			return false
		}
		if !scratch.ClearAll().SubsetOf(a) || scratch.Any() {
			return false
		}

		// Iteration must visit exactly the set bits, ascending.
		var got []int32
		got = a.AppendIndices(got)
		var want []int32
		for i, v := range ma {
			if v {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		sum := 0
		a.ForEach(func(i int) { sum++ })
		return sum == len(want)
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

func TestResizeReuses(t *testing.T) {
	b := New(300)
	b.SetRange(0, 299)
	b.Resize(70)
	if b.Len() != 70 || b.Count() != 0 {
		t.Fatalf("Resize(70): len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(69)
	b.Resize(200) // regrow within capacity: must come back all-clear
	if b.Len() != 200 || b.Count() != 0 {
		t.Fatalf("Resize(200): len=%d count=%d", b.Len(), b.Count())
	}
	b.Resize(-1)
	if b.Len() != 0 || b.Any() {
		t.Fatalf("Resize(-1) should empty the set")
	}
}

func TestAppendKey(t *testing.T) {
	a, b := New(100), New(100)
	a.SetRange(3, 40)
	b.SetRange(3, 40)
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Fatalf("equal sets, different keys")
	}
	b.Set(99)
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) {
		t.Fatalf("different sets, equal keys")
	}
	if got := len(a.AppendKey(nil)); got != 16 {
		t.Fatalf("key length = %d, want 16 (2 words)", got)
	}
}

func TestPoolRecycles(t *testing.T) {
	var p Pool
	a := p.Get(70)
	a.SetRange(0, 69)
	b := p.Get(10)
	if b == a {
		t.Fatalf("Get must not hand out a live buffer")
	}
	p.Reset()
	c := p.Get(128)
	if c != a && c != b {
		t.Fatalf("Reset should recycle buffers")
	}
	if c.Any() || c.Len() != 128 {
		t.Fatalf("recycled buffer not cleared: count=%d len=%d", c.Count(), c.Len())
	}
}

func TestSubsetOfEdges(t *testing.T) {
	a, b := New(64), New(64)
	if !a.SubsetOf(b) {
		t.Fatalf("∅ ⊆ ∅")
	}
	b.Set(63)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatalf("∅ ⊆ {63} and not vice versa")
	}
	a.Set(63)
	if !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Fatalf("{63} ⊆ {63} both ways")
	}
}
