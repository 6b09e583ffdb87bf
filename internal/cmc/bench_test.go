package cmc_test

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/flock"
	"repro/internal/minetest"
	"repro/internal/model"
)

// The sweep benchmarks replay the feed classes of the repository's
// serve-ingest workload (minetest.City, ≈ 1 600 objects per tick) through
// Miner.Step alone: the cluster sets are computed before the timer starts.

func clusterTicks(ticks [][]model.ObjPos, group func([]model.ObjPos) []model.ObjSet) [][]model.ObjSet {
	out := make([][]model.ObjSet, len(ticks))
	for t, snap := range ticks {
		out[t] = group(snap)
	}
	return out
}

// BenchmarkMinerStep measures one Step per op. The feed wraps around every
// minetest.CityTicks ops through a Reset, so the closed set never outgrows one
// replay. allocs/op is the sweep's steady state: the ObjSets of candidates
// that shrank, plus the growth of the closed and fresh queues.
func BenchmarkMinerStep(b *testing.B) {
	dbscanGroups := func(snap []model.ObjPos) []model.ObjSet {
		return dbscan.Cluster(snap, minetest.CityEps, minetest.CityM)
	}
	diskGroups := func(snap []model.ObjPos) []model.ObjSet {
		return flock.DiskGroups(snap, minetest.CityEps, minetest.CityM)
	}
	classes := []struct {
		name     string
		clusters func() [][]model.ObjSet
	}{
		{"moving", func() [][]model.ObjSet { return clusterTicks(minetest.City(1, 650, 14), dbscanGroups) }},
		{"parked", func() [][]model.ObjSet { return clusterTicks(minetest.Park(minetest.City(1, 650, 14)), dbscanGroups) }},
		// Overlapping cluster sets: the disk cover of a city half the size
		// (≈ 800 objects) — covering the full one takes 17 s to prepare.
		{"flock", func() [][]model.ObjSet { return clusterTicks(minetest.City(1, 325, 7), diskGroups) }},
	}
	for _, class := range classes {
		b.Run(class.name, func(b *testing.B) {
			clusters := class.clusters()
			mn := cmc.NewMiner(minetest.CityM, minetest.CityK)
			for t := range clusters { // one replay warms the miner's buffers
				mn.Step(int32(t), clusters[t])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % minetest.CityTicks
				if t == 0 {
					mn.Reset()
				}
				mn.Step(int32(t), clusters[t])
			}
		})
	}
}
