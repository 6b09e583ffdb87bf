package movingcluster_test

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/movingcluster"
)

// BenchmarkMovingClusterStep measures one Step per op — scratch DBSCAN plus
// the chaining — on the moving-cluster feed of the repository's
// serve-ingest workload (minetest.City, ≈ 1 600 objects and ≈ 250 clusters
// per tick, θ = 0.5), played forwards then backwards so chains keep
// extending. BenchmarkScratchStep/moving in internal/dbscan is the
// clustering share.
func BenchmarkMovingClusterStep(b *testing.B) {
	ticks := minetest.City(1, 650, 14)
	cfg := movingcluster.Config{M: minetest.CityM, Eps: minetest.CityEps, Theta: 0.5, K: minetest.CityK}
	mn := movingcluster.NewMiner(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mn.Step(int32(i), ticks[minetest.PingPong(i, len(ticks))])
		mn.Drain()
	}
}
