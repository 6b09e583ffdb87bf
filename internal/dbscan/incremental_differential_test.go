package dbscan_test

import (
	"reflect"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/minetest"
	"repro/internal/model"
)

// stepChecked feeds one snapshot and requires scratch-identical output and
// intact carried state.
func stepChecked(t *testing.T, inc *dbscan.Incremental, snap []model.ObjPos, eps float64, minPts int, label string, tick int) {
	t.Helper()
	got := inc.Step(snap)
	want := dbscan.Cluster(snap, eps, minPts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s t=%d: incremental %v != scratch %v", label, tick, got, want)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("%s t=%d: %v", label, tick, err)
	}
}

// TestDifferentialPatchedStateVsRebuild runs the sequences of the root
// package's TestDifferentialIncrementalClustersVsScratch — 120 seeds of the
// always-present generator, 120 of the churn generator — and, where that
// test can only compare outputs, also checks after every tick that the
// patched cache is the cache a rebuild would hold.
func TestDifferentialPatchedStateVsRebuild(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed int64, nObj, nTicks int) *model.Dataset
	}{
		{"random", minetest.Random},
		{"churn", minetest.RandomChurn},
	}
	for _, g := range gens {
		for seed := int64(0); seed < 120; seed++ {
			ds := g.gen(seed, 8+int(seed%5), 12+int(seed%9))
			inc, err := dbscan.NewIncremental(minetest.Eps, 3)
			if err != nil {
				t.Fatal(err)
			}
			ts, te := ds.TimeRange()
			for tt := ts; tt <= te; tt++ {
				stepChecked(t, inc, ds.Snapshot(tt), minetest.Eps, 3, g.name, int(tt))
			}
			if st := inc.Stats(); st.Fallbacks != 0 || st.Rebuilds != 1 {
				t.Fatalf("%s seed %d: left the incremental path: %+v", g.name, seed, st)
			}
		}
	}
}

// TestCityFeedQueriesFollowChanges replays the serve-ingest feed classes
// and pins the engine's cost model on them: after the rebuild, grid queries
// equal the objects that moved or appeared — never more than the objects in
// the tick, which is what scratch clustering pays.
func TestCityFeedQueriesFollowChanges(t *testing.T) {
	ticks := minetest.City(2, 650, 14)[:40]
	for _, class := range []string{"moving", "parked"} {
		feed := ticks
		if class == "parked" {
			feed = minetest.Park(ticks)
		}
		inc, err := dbscan.NewIncremental(minetest.CityEps, minetest.CityM)
		if err != nil {
			t.Fatal(err)
		}
		prev := map[int32]model.ObjPos{}
		var changed, objects int64
		for tt, snap := range feed {
			stepChecked(t, inc, snap, minetest.CityEps, minetest.CityM, class, tt)
			cur := make(map[int32]model.ObjPos, len(snap))
			for _, p := range snap {
				if old, ok := prev[p.OID]; tt > 0 && (!ok || old != p) {
					changed++
				}
				cur[p.OID] = p
			}
			if tt > 0 {
				objects += int64(len(snap))
			}
			prev = cur
		}
		st := inc.Stats()
		if st.Fallbacks != 0 || st.Rebuilds != 1 {
			t.Fatalf("%s: left the incremental path: %+v", class, st)
		}
		if got := st.GridQueries - int64(len(feed[0])); got != changed || st.Recomputed != changed {
			t.Fatalf("%s: %d grid queries and %d rebuilt lists for %d changed objects", class, got, st.Recomputed, changed)
		}
		t.Logf("%s: %d objects, %d changed, %d in-place edits", class, objects, changed, st.Patched)
		if class == "parked" && changed*5 > objects {
			t.Fatalf("parked feed changed %d of %d positions: not a low-churn feed", changed, objects)
		}
	}
}
