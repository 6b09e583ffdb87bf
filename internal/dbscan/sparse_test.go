package dbscan_test

import (
	"testing"

	"repro/internal/dbscan"
	"repro/internal/experiments"
	"repro/internal/minetest"
	"repro/internal/model"
)

// How many points skip the neighbourhood scan: those whose 3×3 block holds
// fewer than m points, over k/2-hop's benchmark snapshots of the Small
// T-Drive and Brinkhoff datasets (each spec's eps and m, the middle k of
// its sweep) and over every tick of both City feeds. The counts are exact,
// so a change to a generator or to the block rule shows here; the shares
// are logged.
func TestSparseBlockShare(t *testing.T) {
	type feed struct {
		name        string
		snaps       [][]model.ObjPos
		eps         float64
		m           int
		sparse, all int
	}
	var feeds []feed
	for _, c := range []struct {
		spec        experiments.DatasetSpec
		sparse, all int
	}{
		{experiments.TDriveSpec(), 10244, 12000},
		{experiments.BrinkhoffSpec(), 5829, 10428},
	} {
		ds := c.spec.Build(experiments.Small)
		ts, te := ds.TimeRange()
		var snaps [][]model.ObjPos
		for b := ts; b <= te; b += int32(c.spec.KMid(ds) / 2) {
			snaps = append(snaps, ds.Snapshot(b))
		}
		feeds = append(feeds, feed{c.spec.Name, snaps, c.spec.Eps, c.spec.M, c.sparse, c.all})
	}
	moving := minetest.City(1, 650, 14)
	feeds = append(feeds,
		feed{"City moving", moving, minetest.CityEps, minetest.CityM, 35400, 293015},
		feed{"City parked", minetest.Park(moving), minetest.CityEps, minetest.CityM, 99183, 293015})

	for _, f := range feeds {
		sparse, all := 0, 0
		for _, snap := range f.snaps {
			sparse += dbscan.SparsePoints(snap, f.eps, f.m)
			all += len(snap)
		}
		t.Logf("%s: %d of %d points in sparse blocks (%.1f %%)", f.name, sparse, all, 100*float64(sparse)/float64(all))
		if sparse != f.sparse || all != f.all {
			t.Errorf("%s: %d of %d points in sparse blocks, want %d of %d", f.name, sparse, all, f.sparse, f.all)
		}
	}
}
