package convoy

// Differential walls for the flock and moving-cluster streaming feed modes,
// mirroring differential_test.go's convoy wall: the PatternMiner the convoyd
// shard actors run must be byte-identical to the batch miners (MineFlocks
// sweep, MineMovingClusters) over 120 seeded random datasets per generator,
// and a streaming timestamp gap must equal batch-mining with those ticks
// empty.

import (
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

// streamPattern runs a fresh PatternMiner over every snapshot of ds and
// returns the flushed result set.
func streamPattern(t *testing.T, pat Pattern, pp PatternParams, ds *model.Dataset) []PatternResult {
	t.Helper()
	pm, err := NewPatternMiner(pat, pp)
	if err != nil {
		t.Fatal(err)
	}
	ts, te := ds.TimeRange()
	for tt := ts; tt <= te; tt++ {
		if err := pm.Observe(tt, ds.Snapshot(tt)); err != nil {
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

// TestDifferentialFlockStreamVsBatch mines 120 seeded datasets per generator
// both through the streaming flock feed mode and the batch sweep, requiring
// byte-identical canonical results.
func TestDifferentialFlockStreamVsBatch(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed int64, nObj, nTicks int) *model.Dataset
	}{
		{"churn", minetest.RandomChurn},
		{"clique", minetest.RandomClique},
	}
	pp := PatternParams{Params: Params{M: 3, K: 3, Eps: minetest.Eps}, R: 2.0}
	for _, g := range gens {
		for seed := int64(0); seed < 120; seed++ {
			nObj := 8 + int(seed%5)
			nTicks := 12 + int(seed%9)
			ds := g.gen(seed, nObj, nTicks)

			got := resultConvoys(streamPattern(t, PatternFlock, pp, ds))
			want, err := MineFlocks(NewMemStore(ds), pp, true)
			if err != nil {
				t.Fatal(err)
			}
			if d := minetest.DiffConvoys("stream-flock", got, "batch-sweep", want); d != "" {
				t.Fatalf("%s seed %d (%d objs × %d ticks): %s", g.name, seed, nObj, nTicks, d)
			}
			if sg, sb := minetest.Canonical(got), minetest.Canonical(want); sg != sb {
				t.Fatalf("%s seed %d: canonical renderings differ:\nstream:\n%s\nbatch:\n%s", g.name, seed, sg, sb)
			}
		}
	}
}

// TestDifferentialMovingClusterStreamVsBatch is the same wall for the
// moving-cluster feed mode: the streaming Jaccard chaining must reproduce
// MineMovingClusters exactly — same chains, same per-tick cluster sequences,
// same emission order.
func TestDifferentialMovingClusterStreamVsBatch(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed int64, nObj, nTicks int) *model.Dataset
	}{
		{"churn", minetest.RandomChurn},
		{"clique", minetest.RandomClique},
	}
	pp := PatternParams{Params: Params{M: 3, K: 3, Eps: minetest.Eps}, Theta: 0.5}
	for _, g := range gens {
		for seed := int64(0); seed < 120; seed++ {
			nObj := 8 + int(seed%5)
			nTicks := 12 + int(seed%9)
			ds := g.gen(seed, nObj, nTicks)

			got := streamPattern(t, PatternMC, pp, ds)
			want, err := MineMovingClusters(NewMemStore(ds), pp)
			if err != nil {
				t.Fatal(err)
			}
			if sg, sb := canonMCResults(got), canonMCs(want); sg != sb {
				t.Fatalf("%s seed %d (%d objs × %d ticks): moving clusters differ:\nstream:\n%s\nbatch:\n%s",
					g.name, seed, nObj, nTicks, sg, sb)
			}
		}
	}
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
