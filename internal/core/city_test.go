package core

import (
	"testing"
	"time"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// BenchmarkMineCity batch-mines the serve workloads' own traffic — the
// moving city feed and its parked variant, ≈ 1 830 objects per tick over
// 160 ticks — at the serve parameters (m = 3, k = 8, eps = 40), with
// k/2-hop and with VCoDA, on one worker each. Besides time it reports what
// each miner reads from the store: points returned and point queries; for
// k/2-hop also the mean Report.MergeTime, the DCM merge of its spanning
// convoys.
func BenchmarkMineCity(b *testing.B) {
	moving := minetest.City(1, 650, 14)
	feeds := []struct {
		name  string
		ticks [][]model.ObjPos
	}{{"moving", moving}, {"parked", minetest.Park(moving)}}
	miners := []struct {
		name string
		mine func(storage.Store) (merge time.Duration, err error)
	}{
		{"k2hop", func(s storage.Store) (time.Duration, error) {
			_, rep, err := Mine(s, Config{M: minetest.CityM, K: minetest.CityK, Eps: minetest.CityEps, Workers: 1})
			if err != nil {
				return 0, err
			}
			return rep.MergeTime, nil
		}},
		{"vcoda", func(s storage.Store) (time.Duration, error) {
			_, _, err := vcoda.Mine(s, minetest.CityM, minetest.CityK, minetest.CityEps)
			return 0, err
		}},
	}
	for _, feed := range feeds {
		var pts []model.Point
		for t, snap := range feed.ticks {
			for _, p := range snap {
				pts = append(pts, model.Point{OID: p.OID, T: int32(t), X: p.X, Y: p.Y})
			}
		}
		ds := model.NewDataset(pts)
		for _, mn := range miners {
			b.Run(feed.name+"/"+mn.name, func(b *testing.B) {
				var io storage.IOStats
				var merge time.Duration
				for i := 0; i < b.N; i++ {
					ms := storage.NewMemStore(ds)
					d, err := mn.mine(ms)
					if err != nil {
						b.Fatal(err)
					}
					merge += d
					io = ms.Stats().Snapshot()
				}
				b.ReportMetric(float64(io.PointsRead), "points_read/op")
				b.ReportMetric(float64(io.PointQueries), "point_queries/op")
				if mn.name == "k2hop" {
					b.ReportMetric(merge.Seconds()*1e3/float64(b.N), "merge_ms/op")
				}
			})
		}
	}
}
