package core

import (
	"math/rand"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// coincidentalDataset builds the workload the paper's §4.3 describes: many
// pairs are together at and around the benchmark points (adjacent
// timestamps) but drift apart towards the middle of each hop-window. The
// bisection order probes the window middle first and kills such candidates
// after one re-clustering, where a left-to-right order would wade through
// the together-looking prefix first. The phase below matches k=16 (hop 8):
// separation happens at ticks ≡ 3..5 (mod 8).
func coincidentalDataset(seed int64, nObj, nTicks int) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	groups := map[int32][][]int32{}
	for t := 0; t < nTicks; t++ {
		var gs [][]int32
		// One persistent convoy.
		gs = append(gs, []int32{1, 2, 3})
		// Coincidental pairs: together near window borders, apart in the
		// middle of the window.
		phase := t % 8
		midWindow := phase >= 3 && phase <= 5
		for o := int32(10); o < int32(10+nObj); o += 2 {
			if !midWindow && rng.Float64() < 0.95 {
				gs = append(gs, []int32{o, o + 1})
			} else {
				gs = append(gs, []int32{o}, []int32{o + 1})
			}
		}
		groups[int32(t)] = gs
	}
	return minetest.Build(groups)
}

// The bisection order aborts the dead hop-windows of coincidental
// togetherness after few re-clusterings. The count is deterministic; a
// left-to-right order reads 1 138 points on the same run.
func TestBisectionPrunesEarlier(t *testing.T) {
	ms := storage.NewMemStore(coincidentalDataset(3, 30, 60))
	if _, _, err := Mine(ms, Config{M: 2, K: 16, Eps: minetest.Eps}); err != nil {
		t.Fatal(err)
	}
	if got := ms.Stats().Snapshot().PointsRead; got != 784 {
		t.Fatalf("bisection read %d points, want 784", got)
	}
}

func BenchmarkHWMT(b *testing.B) {
	ds := coincidentalDataset(3, 60, 120)
	cfg := Config{M: 2, K: 16, Eps: minetest.Eps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Mine(storage.NewMemStore(ds), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
