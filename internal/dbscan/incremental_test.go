package dbscan

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// stepEqualsScratch asserts the one invariant everything else builds on:
// Step's output is byte-identical (reflect.DeepEqual, so same clusters, same
// member order, same cluster order, nil-vs-empty included) to a scratch
// Cluster call on the same snapshot — and that the state Step leaves behind
// is the state a rebuild would have produced (CheckInvariants).
func stepEqualsScratch(t *testing.T, inc *Incremental, objs []model.ObjPos, eps float64, minPts int, tick int) {
	t.Helper()
	got := inc.Step(objs)
	want := Cluster(objs, eps, minPts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tick %d: incremental %v != scratch %v", tick, got, want)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("tick %d: %v", tick, err)
	}
}

// randomEvolution drives inc through nTicks of randomly evolving snapshots —
// jittering moves, teleports, appears, disappears, permuted input order —
// checking byte-identity against scratch after every tick.
func randomEvolution(t *testing.T, seed int64, eps float64, minPts, nObj, nTicks int) *Incremental {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inc, err := NewIncremental(eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		x, y float64
		in   bool
	}
	world := make([]state, nObj)
	for i := range world {
		world[i] = state{x: rng.Float64() * 12, y: rng.Float64() * 12, in: rng.Intn(4) > 0}
	}
	for tick := 0; tick < nTicks; tick++ {
		for i := range world {
			switch r := rng.Float64(); {
			case r < 0.05:
				world[i].in = !world[i].in // churn: join or leave
			case r < 0.45:
				world[i].x += rng.NormFloat64() * 0.3 // drift
				world[i].y += rng.NormFloat64() * 0.3
			case r < 0.50:
				world[i].x = rng.Float64() * 12 // teleport
				world[i].y = rng.Float64() * 12
			}
		}
		var objs []model.ObjPos
		for i, s := range world {
			if s.in {
				objs = append(objs, pos(int32(i), s.x, s.y))
			}
		}
		// Input order is part of Cluster's contract (cluster order follows
		// first-core input index), so shuffle to prove the replay tracks it.
		rng.Shuffle(len(objs), func(a, b int) { objs[a], objs[b] = objs[b], objs[a] })
		stepEqualsScratch(t, inc, objs, eps, minPts, tick)
	}
	return inc
}

func TestIncrementalMatchesScratchRandomEvolution(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		inc := randomEvolution(t, seed, 1.0, 3, 60, 40)
		st := inc.Stats()
		if st.Fallbacks != 0 {
			t.Fatalf("seed %d: unexpected fallbacks: %+v", seed, st)
		}
		if st.Rebuilds != 1 {
			t.Fatalf("seed %d: want exactly the initial rebuild, got %+v", seed, st)
		}
	}
}

func TestIncrementalMatchesScratchParamSweep(t *testing.T) {
	for _, minPts := range []int{1, 2, 4} {
		for _, eps := range []float64{0.4, 1.5, 3.0} {
			randomEvolution(t, 99, eps, minPts, 40, 25)
		}
	}
}

// A tick with zero deltas must not touch the grid or the cache at all: same
// positions, even in a different input order, answer purely from cache.
func TestIncrementalNoDeltaTickSkipsQueries(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	objs := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 5, 5), pos(4, 5.5, 5)}
	stepEqualsScratch(t, inc, objs, 1.0, 2, 0)
	before := inc.Stats()
	stepEqualsScratch(t, inc, objs, 1.0, 2, 1)
	perm := []model.ObjPos{objs[2], objs[0], objs[3], objs[1]}
	stepEqualsScratch(t, inc, perm, 1.0, 2, 2)
	before.Ticks += 2
	if st := inc.Stats(); st != before {
		t.Fatalf("no-delta ticks did work: %+v, want %+v", st, before)
	}
}

// triads lays out n well-separated groups of three mutually adjacent
// points, 100 apart; group g holds OIDs 3g, 3g+1, 3g+2.
func triads(n int) []model.ObjPos {
	var objs []model.ObjPos
	for g := 0; g < n; g++ {
		bx := float64(g) * 100
		objs = append(objs, pos(int32(3*g), bx, 0), pos(int32(3*g+1), bx+0.4, 0), pos(int32(3*g+2), bx, 0.4))
	}
	return objs
}

// listsByOID snapshots every live object's cached list as sorted OIDs.
func listsByOID(inc *Incremental) map[int32][]int32 {
	out := make(map[int32][]int32, len(inc.alive))
	for _, s := range inc.alive {
		l := make([]int32, 0, len(inc.nbr[s]))
		for _, t := range inc.nbr[s] {
			l = append(l, inc.idx.pos[t].OID)
		}
		slices.Sort(l)
		out[inc.idx.pos[s].OID] = l
	}
	return out
}

// One move costs exactly one grid query, whatever surrounds it, and edits
// only lists of points within eps of the mover's old or new position.
func TestIncrementalMoveIsOneQuery(t *testing.T) {
	inc, err := NewIncremental(1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	objs := triads(30)
	stepEqualsScratch(t, inc, objs, 1.0, 3, 0)
	before, lists := inc.Stats(), listsByOID(inc)

	// Object 0 leaves its triad's range and lands inside the next triad's.
	moved := slices.Clone(objs)
	oldPos := moved[0]
	moved[0].X, moved[0].Y = 100.2, 0.2
	stepEqualsScratch(t, inc, moved, 1.0, 3, 1)

	st := inc.Stats()
	if q := st.GridQueries - before.GridQueries; q != 1 {
		t.Fatalf("one move ran %d grid queries, want 1", q)
	}
	if r := st.Recomputed - before.Recomputed; r != 1 {
		t.Fatalf("one move rebuilt %d lists from a query, want 1", r)
	}
	// Two old neighbours lose it, three new ones gain it.
	if p := st.Patched - before.Patched; p != 5 {
		t.Fatalf("one move made %d in-place edits, want 5", p)
	}
	for oid, after := range listsByOID(inc) {
		if slices.Equal(after, lists[oid]) {
			continue
		}
		var p model.ObjPos
		for _, q := range moved {
			if q.OID == oid {
				p = q
			}
		}
		if model.DistSq(p, oldPos) > 1 && model.DistSq(p, moved[0]) > 1 {
			t.Fatalf("list of oid %d changed (%v → %v) though it is near neither end of the move", oid, lists[oid], after)
		}
	}
}

// A removal needs no grid query: the leaver's cached list names the
// neighbours to edit.
func TestIncrementalRemovalIsZeroQueries(t *testing.T) {
	inc, err := NewIncremental(1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	objs := triads(30)
	stepEqualsScratch(t, inc, objs, 1.0, 3, 0)
	before := inc.Stats()
	stepEqualsScratch(t, inc, objs[1:], 1.0, 3, 1)
	st := inc.Stats()
	if st.GridQueries != before.GridQueries || st.Recomputed != before.Recomputed {
		t.Fatalf("a removal queried the grid: %+v after %+v", st, before)
	}
	if p := st.Patched - before.Patched; p != 2 {
		t.Fatalf("a removal from a triad made %d in-place edits, want 2", p)
	}
}

// The cases symmetric patching can get wrong, each as a short tick
// sequence checked against scratch and the invariants after every tick:
// neighbours that are both deltas must not be edited twice or not at all,
// a slot freed last tick must carry nothing into its next life, and a move
// inside one grid cell must still be diffed by distance.
func TestIncrementalPatchingCases(t *testing.T) {
	// The bystanders 8 and 9 never move: they are the unchanged neighbours
	// whose lists get patched.
	at := func(x1, y1, x2, y2 float64) []model.ObjPos {
		return []model.ObjPos{pos(1, x1, y1), pos(2, x2, y2), pos(8, 0.5, 0.6), pos(9, 3, 0.6)}
	}
	cases := []struct {
		name  string
		ticks [][]model.ObjPos
		slots int // if > 0, the slots the engine must have allocated in all
	}{
		{"two neighbours move towards each other", [][]model.ObjPos{
			at(0, 0, 3, 0), at(1, 0, 2, 0), at(1.4, 0, 1.6, 0),
		}, 0},
		{"two neighbours move apart", [][]model.ObjPos{
			at(1.4, 0, 1.6, 0), at(1, 0, 2.2, 0), at(0, 0, 3, 0),
		}, 0},
		{"two neighbours swap positions", [][]model.ObjPos{
			at(0.2, 0, 0.9, 0), at(0.9, 0, 0.2, 0), at(0.2, 0, 0.9, 0),
		}, 0},
		{"one leaves, another appears at its coordinates", [][]model.ObjPos{
			{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1.0, 0)},
			{pos(1, 0, 0), pos(4, 0.5, 0), pos(3, 1.0, 0)},
			{pos(5, 0, 0), pos(4, 0.5, 0), pos(6, 1.0, 0)},
		}, 0},
		{"a recycled slot re-enters an old neighbour's range", [][]model.ObjPos{
			{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 9, 9)},
			{pos(1, 0, 0), pos(3, 9, 9)},                 // 2 leaves: its slot is freed
			{pos(1, 0, 0), pos(3, 9, 9), pos(7, 9, 9.5)}, // 7 takes the slot, far from 1
			{pos(1, 0, 0), pos(3, 9, 9), pos(7, 0.5, 0)}, // and walks to where 2 was
			{pos(1, 0, 0), pos(3, 9, 9), pos(7, 5, 5)},
		}, 3},
		{"a move keeps the cell but crosses the eps boundary", [][]model.ObjPos{
			{pos(1, 0.05, 0.5), pos(2, 1.0, 0.5), pos(3, 1.9, 0.5)},
			{pos(1, 0.05, 0.5), pos(2, 1.1, 0.5), pos(3, 1.9, 0.5)}, // 2 stays in cell (1,0), leaves 1's range
			{pos(1, 0.05, 0.5), pos(2, 1.0, 0.5), pos(3, 1.9, 0.5)},
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, minPts := range []int{1, 2, 3} {
				inc, err := NewIncremental(1.0, minPts)
				if err != nil {
					t.Fatal(err)
				}
				for i, objs := range c.ticks {
					stepEqualsScratch(t, inc, objs, 1.0, minPts, i)
				}
				if st := inc.Stats(); st.Fallbacks != 0 || st.Rebuilds != 1 {
					t.Fatalf("left the incremental path: %+v", st)
				}
				if c.slots > 0 && len(inc.idx.pos) != c.slots {
					t.Fatalf("%d slots allocated, want %d: the case did not recycle", len(inc.idx.pos), c.slots)
				}
			}
		})
	}
}

// Duplicate OIDs in one snapshot are outside the identity-diff regime: the
// tick must fall back to scratch (still byte-identical) and the next clean
// tick must rebuild and carry on incrementally.
func TestIncrementalDuplicateOIDFallsBack(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1.0, 0)}
	stepEqualsScratch(t, inc, clean, 1.0, 2, 0)
	dup := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(1, 1.0, 0)}
	stepEqualsScratch(t, inc, dup, 1.0, 2, 1)
	if inc.Stats().Fallbacks != 1 {
		t.Fatalf("dup tick should fall back: %+v", inc.Stats())
	}
	stepEqualsScratch(t, inc, clean, 1.0, 2, 2)
	if inc.Stats().Rebuilds != 2 {
		t.Fatalf("clean tick after dup should rebuild: %+v", inc.Stats())
	}
	stepEqualsScratch(t, inc, clean, 1.0, 2, 3)
	if inc.Stats().Fallbacks != 1 || inc.Stats().Rebuilds != 2 {
		t.Fatalf("engine should be incremental again: %+v", inc.Stats())
	}
}

// Dup on the very first tick (rebuild path) must also fall back cleanly.
func TestIncrementalDuplicateOIDOnFirstTick(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dup := []model.ObjPos{pos(7, 0, 0), pos(7, 0.1, 0), pos(8, 0.2, 0)}
	stepEqualsScratch(t, inc, dup, 1.0, 2, 0)
	if inc.Stats().Fallbacks != 1 {
		t.Fatalf("want fallback on first-tick dup: %+v", inc.Stats())
	}
}

// Coordinates whose cell index leaves int32 (astronomic values, NaN, Inf)
// break grid geometry; those ticks must answer from scratch.
func TestIncrementalExtremeCoordsFallBack(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), 1e30, -1e30} {
		inc, err := NewIncremental(1.0, 2)
		if err != nil {
			t.Fatal(err)
		}
		clean := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0)}
		stepEqualsScratch(t, inc, clean, 1.0, 2, 0)
		weird := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, bad, 0)}
		stepEqualsScratch(t, inc, weird, 1.0, 2, 1)
		if inc.Stats().Fallbacks == 0 {
			t.Fatalf("coord %v should force a scratch tick", bad)
		}
		stepEqualsScratch(t, inc, clean, 1.0, 2, 2)
	}
	// The int32-extreme cells themselves are still *inside* the regime —
	// Cluster clamps there and so does the incremental grid.
	inc, err := NewIncremental(1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	edge := []model.ObjPos{pos(1, 0, 2147483647.0), pos(2, 0.1, 2147483647.0), pos(3, 0.2, 2147483647.0)}
	stepEqualsScratch(t, inc, edge, 1.0, 3, 0)
	edge[0].X = 0.05
	stepEqualsScratch(t, inc, edge, 1.0, 3, 1)
	if inc.Stats().Fallbacks != 0 {
		t.Fatalf("extreme-but-representable cells should stay incremental: %+v", inc.Stats())
	}
}

// Degenerate eps pins the engine to scratch permanently (Cluster's grid is
// already clamped to a point-sized cell there; nothing to amortise).
func TestIncrementalDegenerateEps(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		inc, err := NewIncremental(eps, 1)
		if err != nil {
			t.Fatal(err)
		}
		objs := []model.ObjPos{pos(1, 0, 0), pos(2, 0, 0)}
		stepEqualsScratch(t, inc, objs, eps, 1, 0)
		stepEqualsScratch(t, inc, objs, eps, 1, 1)
		if st := inc.Stats(); st.Fallbacks != 2 || st.Rebuilds != 0 {
			t.Fatalf("eps=%v: want permanent scratch, got %+v", eps, st)
		}
	}
	if _, err := NewIncremental(1.0, 0); err == nil {
		t.Fatal("minPts=0 should be rejected")
	}
}

// Pathologically dense data (here: everyone coincident) would make the
// neighbourhood cache quadratic; the edge cap must degrade to scratch with
// backoff instead, and output must stay byte-identical throughout.
func TestIncrementalEdgeCapDegradesToScratch(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 300 // 300² = 90000 edges > 64·300+4096
	objs := make([]model.ObjPos, n)
	for i := range objs {
		objs[i] = pos(int32(i), 0, 0)
	}
	for tick := 0; tick < 3; tick++ {
		stepEqualsScratch(t, inc, objs, 1.0, 2, tick)
	}
	st := inc.Stats()
	if st.Fallbacks != 3 {
		t.Fatalf("all dense ticks should answer from scratch: %+v", st)
	}
	if st.Rebuilds != 1 {
		t.Fatalf("backoff should prevent rebuild thrash: %+v", st)
	}
}

// Emptying and refilling the feed mid-stream must work: the carried state
// can shrink to nothing and grow back without a rebuild.
func TestIncrementalEmptyTicksMidStream(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	objs := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0)}
	stepEqualsScratch(t, inc, objs, 1.0, 2, 0)
	stepEqualsScratch(t, inc, nil, 1.0, 2, 1)
	stepEqualsScratch(t, inc, objs, 1.0, 2, 2)
	if st := inc.Stats(); st.Rebuilds != 1 || st.Fallbacks != 0 {
		t.Fatalf("empty tick should not reset the engine: %+v", st)
	}
}

// Reset must drop all carried state: the next Step rebuilds and sees none
// of the pre-Reset world.
func TestIncrementalReset(t *testing.T) {
	inc := randomEvolution(t, 5, 1.0, 3, 40, 10)
	inc.Reset()
	if len(inc.oidSlot) != 0 || len(inc.idx.entries) != 0 || len(inc.nbr) != 0 || inc.valid {
		t.Fatalf("Reset left state behind")
	}
	before := inc.Stats().Rebuilds
	objs := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1.0, 0)}
	stepEqualsScratch(t, inc, objs, 1.0, 3, 0)
	if inc.Stats().Rebuilds != before+1 {
		t.Fatalf("Step after Reset should rebuild: %+v", inc.Stats())
	}
}

// Slot recycling across ticks: objects leaving and unrelated objects
// arriving later must not inherit stale neighbourhood state.
func TestIncrementalSlotRecycling(t *testing.T) {
	inc, err := NewIncremental(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tickA := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 10, 10), pos(4, 10.5, 10)}
	tickB := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0)} // 3,4 leave
	tickC := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(5, 0.9, 0), pos(6, 20, 20)}
	for i, objs := range [][]model.ObjPos{tickA, tickB, tickC, tickB, tickA} {
		stepEqualsScratch(t, inc, objs, 1.0, 2, i)
	}
	if st := inc.Stats(); st.Fallbacks != 0 || st.Rebuilds != 1 {
		t.Fatalf("churn should stay incremental: %+v", st)
	}
}
