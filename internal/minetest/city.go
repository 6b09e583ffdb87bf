package minetest

import (
	"math/rand"

	"repro/internal/datagen/brinkhoff"
	"repro/internal/model"
)

// The city feed reproduces the feed classes of the repository's
// serve-ingest workload (bench/gen.go: Brinkhoff traffic on a 16×16 road
// grid in a 6000² city, half the spawns platoons of four, m = 3, k = 8,
// eps = 40). It is the input of the per-layer benchmarks in internal/cmc,
// internal/dbscan, internal/flock, internal/movingcluster and
// internal/server, and the traffic cmd/loadgen sends to a remote convoyd.
const (
	CityTicks = 160
	CityM     = 3
	CityK     = 8
	CityEps   = 40
)

// City simulates CityTicks ticks of the city feed and returns the positions
// per tick. objBegin = 650 and objPerTick = 14 give the ≈ 1 600 objects per
// tick of serve-ingest's convoy and moving-cluster feeds.
func City(seed int64, objBegin, objPerTick int) [][]model.ObjPos {
	ds := brinkhoff.Generate(brinkhoff.Params{
		Seed: seed, GridW: 16, GridH: 16, SpaceW: 6000, SpaceH: 6000,
		MaxTime: CityTicks, ObjBegin: objBegin, ObjPerTick: objPerTick,
		Classes: 3, PlatoonFraction: 0.5, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
	})
	out := make([][]model.ObjPos, CityTicks)
	for t := range out {
		out[t] = ds.Snapshot(int32(t))
	}
	return out
}

// Park makes the low-churn class out of a moving feed: each object
// re-reports its previous position with probability 0.9.
func Park(ticks [][]model.ObjPos) [][]model.ObjPos {
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

// PingPong maps op i of a benchmark loop to a tick index that walks 0…n-1
// and back, so a feed of n ticks replays forever without a jump: every step
// goes to a neighbouring tick.
func PingPong(i, n int) int {
	i %= 2*n - 2
	if i >= n {
		i = 2*n - 2 - i
	}
	return i
}
