package dbscan_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/minetest"
	"repro/internal/model"
)

// BenchmarkClusterStep's feeds come in two kinds.
//
// The churn sweep models a convoyd feed at steady state: 4000 objects in
// 125 well-separated groups of 32, where each tick a churn-fraction of the
// groups jiggles (sub-eps moves, the common GPS-fix case) and the rest hold
// position. churn=100 moves every group every tick; churn=1 is the "mostly
// parked" regime. Clustering from scratch costs the same in both, which is
// the point of keeping the sweep: a change that made it depend on churn
// would show here.
//
// moving and parked are the convoy feed classes of the repository's
// serve-ingest workload (minetest.City, ≈ 1 600 objects per tick; parked
// re-reports 90 % of the positions), played forwards then backwards so the
// stream never jumps.

const (
	benchGroups   = 125
	benchPerGroup = 32
	benchEps      = 1.5
	benchMinPts   = 4
)

// stepFeed is one benchmark input: next returns the snapshot of op i and
// runs outside the timer.
type stepFeed struct {
	name   string
	eps    float64
	minPts int
	next   func(i int) []model.ObjPos
}

func stepFeeds() []stepFeed {
	var feeds []stepFeed
	for _, churn := range []int{1, 10, 50, 100} {
		objs := benchWorld()
		rng := rand.New(rand.NewSource(7))
		count, at := max(benchGroups*churn/100, 1), 0
		feeds = append(feeds, stepFeed{
			name: fmt.Sprintf("churn=%d", churn), eps: benchEps, minPts: benchMinPts,
			next: func(int) []model.ObjPos {
				at = jiggleGroups(objs, rng, at, count)
				return objs
			},
		})
	}
	for _, class := range []string{"moving", "parked"} {
		var ticks [][]model.ObjPos // generated on first use: a run of one sub-benchmark pays for one feed
		feeds = append(feeds, stepFeed{
			name: class, eps: minetest.CityEps, minPts: minetest.CityM,
			next: func(i int) []model.ObjPos {
				if ticks == nil {
					ticks = minetest.City(1, 650, 14)
					if class == "parked" {
						ticks = minetest.Park(ticks)
					}
				}
				return ticks[minetest.PingPong(i, len(ticks))]
			},
		})
	}
	return feeds
}

func benchWorld() []model.ObjPos {
	objs := make([]model.ObjPos, 0, benchGroups*benchPerGroup)
	for g := 0; g < benchGroups; g++ {
		cx, cy := float64(g%12)*50, float64(g/12)*50
		for m := 0; m < benchPerGroup; m++ {
			objs = append(objs, model.ObjPos{
				OID: int32(g*benchPerGroup + m),
				X:   cx + float64(m%6)*0.9,
				Y:   cy + float64(m/6)*0.9,
			})
		}
	}
	return objs
}

// jiggleGroups applies one tick of churn in place: `count` groups, rotating
// through the group list so every group eventually moves, each member
// drifting by a sub-eps random walk.
func jiggleGroups(objs []model.ObjPos, rng *rand.Rand, next, count int) int {
	for c := 0; c < count; c++ {
		g := next % benchGroups
		next++
		for m := 0; m < benchPerGroup; m++ {
			i := g*benchPerGroup + m
			objs[i].X += (rng.Float64() - 0.5) * 0.2
			objs[i].Y += (rng.Float64() - 0.5) * 0.2
		}
	}
	return next
}

// BenchmarkClusterStep clusters one snapshot per op, as PatternMiner does
// for every tick of a live feed. The snapshot is prepared outside the
// timer, so ns/op is purely Cluster.
func BenchmarkClusterStep(b *testing.B) {
	for _, feed := range stepFeeds() {
		b.Run(feed.name, func(b *testing.B) {
			feed.next(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				b.StopTimer()
				objs := feed.next(i)
				b.StartTimer()
				dbscan.Cluster(objs, feed.eps, feed.minPts)
			}
		})
	}
}
