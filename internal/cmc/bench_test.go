package cmc_test

import (
	"math/rand"
	"testing"

	"repro/internal/cmc"
	"repro/internal/datagen/brinkhoff"
	"repro/internal/dbscan"
	"repro/internal/flock"
	"repro/internal/model"
)

// The sweep benchmarks replay the feed classes of the repository's
// serve-ingest workload (bench/gen.go: Brinkhoff traffic on a 16×16 road
// grid in a 6000² city, half the spawns platoons of four, ≈ 1 600 objects
// per tick, m = 3, k = 8, eps = 40) through Miner.Step alone: the cluster
// sets are computed before the timer starts.

const (
	benchTicks = 160
	benchM     = 3
	benchK     = 8
	benchEps   = 40
)

func cityTicks(seed int64, objBegin, objPerTick int) [][]model.ObjPos {
	ds := brinkhoff.Generate(brinkhoff.Params{
		Seed: seed, GridW: 16, GridH: 16, SpaceW: 6000, SpaceH: 6000,
		MaxTime: benchTicks, ObjBegin: objBegin, ObjPerTick: objPerTick,
		Classes: 3, PlatoonFraction: 0.5, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
	})
	out := make([][]model.ObjPos, benchTicks)
	for t := range out {
		out[t] = ds.Snapshot(int32(t))
	}
	return out
}

// park makes the low-churn class: each object re-reports its previous
// position with probability 0.9.
func park(ticks [][]model.ObjPos) [][]model.ObjPos {
	rng := rand.New(rand.NewSource(3))
	out := make([][]model.ObjPos, len(ticks))
	prev := map[int32]model.ObjPos{}
	for t, snap := range ticks {
		cur := make([]model.ObjPos, len(snap))
		next := make(map[int32]model.ObjPos, len(snap))
		for i, p := range snap {
			if old, ok := prev[p.OID]; ok && rng.Float64() < 0.9 {
				p = old
			}
			cur[i] = p
			next[p.OID] = p
		}
		out[t], prev = cur, next
	}
	return out
}

func clusterTicks(ticks [][]model.ObjPos, group func([]model.ObjPos) []model.ObjSet) [][]model.ObjSet {
	out := make([][]model.ObjSet, len(ticks))
	for t, snap := range ticks {
		out[t] = group(snap)
	}
	return out
}

// BenchmarkMinerStep measures one Step per op. The feed wraps around every
// benchTicks ops through a Reset, so the closed set never outgrows one
// replay. allocs/op is the sweep's steady state: the ObjSets of candidates
// that shrank, plus the growth of the closed and fresh queues.
func BenchmarkMinerStep(b *testing.B) {
	dbscanGroups := func(snap []model.ObjPos) []model.ObjSet { return dbscan.Cluster(snap, benchEps, benchM) }
	diskGroups := func(snap []model.ObjPos) []model.ObjSet { return flock.DiskGroups(snap, benchEps, benchM) }
	classes := []struct {
		name     string
		clusters func() [][]model.ObjSet
	}{
		{"moving", func() [][]model.ObjSet { return clusterTicks(cityTicks(1, 650, 14), dbscanGroups) }},
		{"parked", func() [][]model.ObjSet { return clusterTicks(park(cityTicks(1, 650, 14)), dbscanGroups) }},
		// Overlapping cluster sets: the disk cover of a city half the size
		// (≈ 800 objects) — covering the full one takes 17 s to prepare.
		{"flock", func() [][]model.ObjSet { return clusterTicks(cityTicks(1, 325, 7), diskGroups) }},
	}
	for _, class := range classes {
		b.Run(class.name, func(b *testing.B) {
			clusters := class.clusters()
			mn := cmc.NewMiner(benchM, benchK)
			for t := range clusters { // one replay warms the miner's buffers
				mn.Step(int32(t), clusters[t])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % benchTicks
				if t == 0 {
					mn.Reset()
				}
				mn.Step(int32(t), clusters[t])
			}
		})
	}
}
