package convoy

// Helpers of the stream-vs-batch table (TestDifferentialStreamVsBatch in
// differential_test.go), and the gap contract of the flock and
// moving-cluster feed modes: a streaming timestamp gap must equal
// batch-mining with those ticks empty.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

// canonMCs renders a moving-cluster result set canonically: one Key per
// pattern, in emission order (the order is part of the contract — both
// sides run the same greedy chaining).
func canonMCs(mcs []MovingCluster) string {
	var sb strings.Builder
	for _, mc := range mcs {
		sb.WriteString(mc.Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// canonMCResults is canonMCs over the streaming PatternResult wrapping.
func canonMCResults(rs []PatternResult) string {
	mcs := make([]MovingCluster, len(rs))
	for i, r := range rs {
		mcs[i] = MovingCluster{Start: r.Start, Clusters: r.Clusters}
	}
	return canonMCs(mcs)
}

// canonResults renders a convoy or flock result set canonically.
func canonResults(rs []PatternResult) string { return minetest.Canonical(resultConvoys(rs)) }

// streamPattern runs a fresh PatternMiner over every snapshot of ds and
// returns the flushed result set. With shuffled set, each tick's positions
// are shuffled first by a generator seeded with seed.
func streamPattern(t *testing.T, pat Pattern, pp PatternParams, ds *model.Dataset, shuffled bool, seed int64) []PatternResult {
	t.Helper()
	pm, err := NewPatternMiner(pat, pp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ts, te := ds.TimeRange()
	for tt := ts; tt <= te; tt++ {
		snap := ds.Snapshot(tt)
		if shuffled {
			snap = slices.Clone(snap)
			rng.Shuffle(len(snap), func(i, j int) { snap[i], snap[j] = snap[j], snap[i] })
		}
		if err := pm.Observe(tt, snap); err != nil {
			t.Fatalf("observe t=%d: %v", tt, err)
		}
	}
	return pm.Flush()
}

// resultConvoys projects a cluster-free result set back to convoys.
func resultConvoys(rs []PatternResult) []Convoy {
	out := make([]Convoy, len(rs))
	for i, r := range rs {
		out[i] = r.Convoy
	}
	return out
}

// TestDifferentialPatternGapEqualsEmptyTicks checks the gap contract every
// streaming mode shares: skipping timestamps on the stream must equal
// batch-mining a dataset whose skipped ticks are simply empty. Every third
// tick of each dataset is dropped.
func TestDifferentialPatternGapEqualsEmptyTicks(t *testing.T) {
	pp := PatternParams{Params: Params{M: 3, K: 2, Eps: minetest.Eps}, R: 2.0, Theta: 0.5}
	dropped := func(tt int32) bool { return tt%3 == 2 }
	for seed := int64(0); seed < 40; seed++ {
		full := minetest.RandomChurn(seed, 10, 15)
		ts, te := full.TimeRange()
		// The batch oracle's dataset: the dropped ticks hold no points. Keep
		// a sentinel point at ts and te so the time range is preserved even
		// when an endpoint tick is dropped.
		var pts []model.Point
		for tt := ts; tt <= te; tt++ {
			if dropped(tt) && tt != ts && tt != te {
				continue
			}
			for _, p := range full.Snapshot(tt) {
				pts = append(pts, model.Point{OID: p.OID, T: tt, X: p.X, Y: p.Y})
			}
		}
		gapped := model.NewDataset(pts)

		// Flock: stream with gaps vs batch over the gapped dataset.
		fm, err := NewPatternMiner(PatternFlock, pp)
		if err != nil {
			t.Fatal(err)
		}
		// Moving cluster likewise.
		mm, err := NewPatternMiner(PatternMC, pp)
		if err != nil {
			t.Fatal(err)
		}
		for tt := ts; tt <= te; tt++ {
			if dropped(tt) && tt != ts && tt != te {
				continue
			}
			if err := fm.Observe(tt, gapped.Snapshot(tt)); err != nil {
				t.Fatal(err)
			}
			if err := mm.Observe(tt, gapped.Snapshot(tt)); err != nil {
				t.Fatal(err)
			}
		}

		wantF, err := MineFlocks(NewMemStore(gapped), pp, true)
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("gapped-stream", resultConvoys(fm.Flush()), "empty-tick-batch", wantF); d != "" {
			t.Fatalf("flock seed %d: %s", seed, d)
		}

		wantM, err := MineMovingClusters(NewMemStore(gapped), pp)
		if err != nil {
			t.Fatal(err)
		}
		if sg, sb := canonMCResults(mm.Flush()), canonMCs(wantM); sg != sb {
			t.Fatalf("mc seed %d: gapped stream differs from empty-tick batch:\nstream:\n%s\nbatch:\n%s", seed, sg, sb)
		}
	}
}
