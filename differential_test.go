package convoy

// Differential tests: the streaming miner against the batch sweep on
// arbitrary random data, and every Options.Algorithm against every other on
// clique-cluster data where FC and PC semantics provably coincide (see
// internal/minetest/differential.go). These are the backbone that keeps
// future algorithm changes honest: any divergence between two
// implementations of the same semantics fails loudly with a set diff.

import (
	"testing"

	"repro/internal/datagen/brinkhoff"
	"repro/internal/dbscan"
	"repro/internal/flock"
	"repro/internal/minetest"
	"repro/internal/model"
)

// TestDifferentialStreamVsBatch mines ≥100 seeded random datasets both
// incrementally (Observe/Flush) and in batch (PCCD over a store) and
// requires byte-identical canonical results.
func TestDifferentialStreamVsBatch(t *testing.T) {
	const trials = 120
	for seed := int64(0); seed < trials; seed++ {
		nObj := 8 + int(seed%5)
		nTicks := 12 + int(seed%9)
		ds := minetest.Random(seed, nObj, nTicks)
		p := Params{M: 3, K: 4, Eps: minetest.Eps}

		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			if err := sm.Observe(tt, ds.Snapshot(tt)); err != nil {
				t.Fatalf("seed %d: observe t=%d: %v", seed, tt, err)
			}
		}
		got := sm.Flush()

		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("stream", got, "batch", want.Convoys); d != "" {
			t.Fatalf("seed %d (%d objs × %d ticks): %s", seed, nObj, nTicks, d)
		}
		if sg, sb := minetest.Canonical(got), minetest.Canonical(want.Convoys); sg != sb {
			t.Fatalf("seed %d: canonical renderings differ:\nstream:\n%s\nbatch:\n%s", seed, sg, sb)
		}
	}
}

// TestDifferentialAllAlgorithms runs every algorithm over clique-cluster
// datasets — where fully and partially connected convoy semantics coincide
// — and requires all seven result sets (plus the streaming miner's) to be
// identical. Every miner but one runs on sorted ObjSets (k/2-hop's candidate
// phase and the PCCD, DCM and streaming sweeps find what intersects through
// posting lists); SPARE enumerates over per-pair tick bitmaps, so this suite
// doubles as a 120-seed check of that second route to the same convoys.
func TestDifferentialAllAlgorithms(t *testing.T) {
	algos := []Algorithm{K2Hop, VCoDA, VCoDAStar, PCCD, CuTS, DCM, SPARE}
	p := Params{M: 3, K: 4, Eps: minetest.Eps}
	for seed := int64(0); seed < 120; seed++ {
		nObj := 8 + int(seed%4)
		nTicks := 12 + int(seed%6)
		ds := minetest.RandomClique(seed, nObj, nTicks)
		if !minetest.CliqueClusters(ds, p.Eps, p.M) {
			t.Fatalf("seed %d: RandomClique produced a non-clique cluster; premise broken", seed)
		}

		ref, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range algos {
			res, err := MineDataset(ds, p, &Options{Algorithm: algo})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, algo, err)
			}
			if d := minetest.DiffConvoys(string(algo), res.Convoys, "pccd", ref.Convoys); d != "" {
				t.Fatalf("seed %d (%d objs × %d ticks): %s", seed, nObj, nTicks, d)
			}
		}

		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			if err := sm.Observe(tt, ds.Snapshot(tt)); err != nil {
				t.Fatal(err)
			}
		}
		if d := minetest.DiffConvoys("stream", sm.Flush(), "pccd", ref.Convoys); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestDifferentialSweepVsSortedReference pins the posting-list sweep to the
// algorithm's definition: minetest.ReferenceSweep is a frozen sorted-slice
// transliteration of the CMC/PCCD sweep (ObjSet.Intersect against every
// group, all-pairs ObjSet.SubsetOf pruning, one global maximal result set),
// and over 120 seeded random datasets the batch miner and the streaming
// miner — which find intersections through object → cluster postings, prune
// through object → candidate postings and filter results within one End
// group only — must produce byte-identical canonical output. Convoy values,
// not just set membership: Canonical renders ids, starts and ends.
//
// Every seed runs three inputs: the plain stream, the stream with ticks
// removed (a gap closes every open candidate), and — through the flock
// feed mode — the disk cover of the same positions, whose groups overlap,
// again with the gaps.
func TestDifferentialSweepVsSortedReference(t *testing.T) {
	const trials = 120
	for seed := int64(0); seed < trials; seed++ {
		nObj := 8 + int(seed%5)
		nTicks := 12 + int(seed%9)
		ds := minetest.Random(seed, nObj, nTicks)
		p := Params{M: 3, K: 4, Eps: minetest.Eps}

		want := minetest.ReferencePCCD(ds, p.M, p.K, p.Eps)
		batch, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("batch", batch.Convoys, "sorted-reference", want); d != "" {
			t.Fatalf("seed %d (%d objs × %d ticks): %s", seed, nObj, nTicks, d)
		}

		ts, te := ds.TimeRange()
		var all, gappy []int32
		for tt := ts; tt <= te; tt++ {
			all = append(all, tt)
			if (int64(tt)+seed)%5 != 3 {
				gappy = append(gappy, tt)
			}
		}
		clusters := func(snap []ObjPos) []ObjSet { return dbscan.Cluster(snap, p.Eps, p.M) }
		disks := func(snap []ObjPos) []ObjSet { return flock.DiskGroups(snap, p.Eps, p.M) }
		inputs := []struct {
			name   string
			pat    Pattern
			ticks  []int32
			groups func(snap []ObjPos) []ObjSet
		}{
			{"stream", PatternConvoy, all, clusters},
			{"stream+gaps", PatternConvoy, gappy, clusters},
			{"disks", PatternFlock, all, disks},
			{"disks+gaps", PatternFlock, gappy, disks},
		}
		for _, in := range inputs {
			var ref []minetest.SweepTick
			pm, err := NewPatternMiner(in.pat, PatternParams{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			var drained []Convoy
			for _, tt := range in.ticks {
				ref = append(ref, minetest.SweepTick{T: tt, Groups: in.groups(ds.Snapshot(tt))})
				if err := pm.Observe(tt, ds.Snapshot(tt)); err != nil {
					t.Fatal(err)
				}
				for _, r := range pm.Closed() {
					drained = append(drained, r.Convoy)
				}
			}
			want := minetest.ReferenceSweep(ref, p.M, p.K)
			var got []Convoy
			for _, r := range pm.Flush() {
				got = append(got, r.Convoy)
			}
			if sg, sw := minetest.Canonical(got), minetest.Canonical(want); sg != sw {
				t.Fatalf("seed %d %s: canonical renderings differ:\nsweep:\n%s\nreference:\n%s", seed, in.name, sg, sw)
			}
			// What closed before the flush was reported once each, and is
			// part of the final maximal set: nothing drained is ever
			// superseded.
			final := model.NewConvoySet(want...)
			seen := map[string]bool{}
			for _, c := range drained {
				if seen[c.Key()] {
					t.Fatalf("seed %d %s: %v drained twice", seed, in.name, c)
				}
				seen[c.Key()] = true
				if !final.Contains(c) {
					t.Fatalf("seed %d %s: drained %v is not in the final result", seed, in.name, c)
				}
			}
		}
	}
}

// TestDifferentialStreamResetReuse checks that one StreamMiner instance,
// Reset between streams, matches fresh-miner results — the reuse pattern
// the convoyd shard actors depend on.
func TestDifferentialStreamResetReuse(t *testing.T) {
	p := Params{M: 3, K: 4, Eps: minetest.Eps}
	sm, err := NewStreamMiner(p)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		ds := minetest.Random(seed, 9, 14)
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			if err := sm.Observe(tt, ds.Snapshot(tt)); err != nil {
				t.Fatal(err)
			}
		}
		got := sm.Flush()
		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("reused-stream", got, "batch", want.Convoys); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		sm.Reset()
	}
}

// TestDifferentialStreamVsBatchChurn is TestDifferentialStreamVsBatch over
// the high-churn generator: objects join and leave the feed mid-stream, so
// the sweep's candidates gain and lose members on nearly every tick, and
// the streaming output must still be byte-identical to the batch oracle.
func TestDifferentialStreamVsBatchChurn(t *testing.T) {
	const trials = 120
	for seed := int64(0); seed < trials; seed++ {
		nObj := 8 + int(seed%5)
		nTicks := 12 + int(seed%9)
		ds := minetest.RandomChurn(seed, nObj, nTicks)
		p := Params{M: 3, K: 4, Eps: minetest.Eps}

		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			if err := sm.Observe(tt, ds.Snapshot(tt)); err != nil {
				t.Fatalf("seed %d: observe t=%d: %v", seed, tt, err)
			}
		}
		got := sm.Flush()

		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("stream", got, "batch", want.Convoys); d != "" {
			t.Fatalf("seed %d (%d objs × %d ticks): %s", seed, nObj, nTicks, d)
		}
		if sg, sb := minetest.Canonical(got), minetest.Canonical(want.Convoys); sg != sb {
			t.Fatalf("seed %d: canonical renderings differ:\nstream:\n%s\nbatch:\n%s", seed, sg, sb)
		}
	}
}

// TestDifferentialStreamVsBatchBrinkhoff runs the stream-vs-batch
// differential over small road-network datasets: Brinkhoff traffic has
// structural churn (objects spawn every tick and disappear on arrival at
// their destination), which is the production-shaped counterpart to
// RandomChurn's uniform coin flips.
func TestDifferentialStreamVsBatchBrinkhoff(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		bp := brinkhoff.Params{
			Seed: seed, GridW: 8, GridH: 8, SpaceW: 2000, SpaceH: 2000,
			MaxTime: 60, ObjBegin: 40, ObjPerTick: 3, Classes: 3,
			PlatoonFraction: 0.4, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
		}
		ds := brinkhoff.Generate(bp)
		p := Params{M: 3, K: 3, Eps: 40}

		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			if err := sm.Observe(tt, ds.Snapshot(tt)); err != nil {
				t.Fatalf("seed %d: observe t=%d: %v", seed, tt, err)
			}
		}
		got := sm.Flush()

		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if d := minetest.DiffConvoys("stream", got, "batch", want.Convoys); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestDifferentialMaximality spot-checks the shared output contract on the
// differential datasets: every reported convoy really is a convoy, and no
// reported convoy is a strict sub-convoy of another.
func TestDifferentialMaximality(t *testing.T) {
	p := Params{M: 3, K: 4, Eps: minetest.Eps}
	for seed := int64(0); seed < 25; seed++ {
		ds := minetest.Random(seed, 10, 16)
		res, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Convoys {
			if !minetest.IsConvoy(ds, c, p.M, p.Eps) {
				t.Fatalf("seed %d: %v is not a convoy", seed, c)
			}
		}
		if i, j := minetest.AssertMaximal(res.Convoys); i >= 0 {
			t.Fatalf("seed %d: convoy %v ⊂ %v", seed, res.Convoys[i], res.Convoys[j])
		}
	}
}
