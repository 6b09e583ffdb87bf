package convoy

import (
	"math"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

func TestStreamMinerBasic(t *testing.T) {
	sm, err := NewStreamMiner(Params{M: 2, K: 3, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	near := func(oid int32, x float64) ObjPos { return ObjPos{OID: oid, X: x} }
	// Pair together ticks 0..4, then apart.
	for tt := int32(0); tt < 5; tt++ {
		sm.Observe(tt, []ObjPos{near(1, 0), near(2, 1)})
	}
	if got := sm.Closed(); len(got) != 0 {
		t.Fatalf("nothing should close while alive: %v", got)
	}
	sm.Observe(5, []ObjPos{near(1, 0), near(2, 500)})
	got := sm.Closed()
	want := model.NewConvoy(NewObjSet(1, 2), 0, 4)
	if len(got) != 1 || !got[0].Equal(want) {
		t.Fatalf("closed = %v, want %v", got, want)
	}
	// No duplicate reporting.
	sm.Observe(6, []ObjPos{near(1, 0), near(2, 500)})
	if got := sm.Closed(); len(got) != 0 {
		t.Fatalf("duplicate close: %v", got)
	}
}

func TestStreamMinerFlushMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ds := minetest.Random(seed, 10, 15)
		ts, te := ds.TimeRange()
		p := Params{M: 3, K: 4, Eps: minetest.Eps}
		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		for tt := ts; tt <= te; tt++ {
			sm.Observe(tt, ds.Snapshot(tt))
		}
		got := sm.Flush()
		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want.Convoys) {
			t.Fatalf("seed %d: stream %v != batch %v", seed, got, want.Convoys)
		}
	}
}

func TestStreamMinerGapClosesConvoys(t *testing.T) {
	sm, err := NewStreamMiner(Params{M: 2, K: 2, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	sm.Observe(0, pair)
	sm.Observe(1, pair)
	sm.Observe(10, pair) // gap
	sm.Observe(11, pair)
	got := sm.Flush()
	want := []Convoy{
		model.NewConvoy(NewObjSet(1, 2), 0, 1),
		model.NewConvoy(NewObjSet(1, 2), 10, 11),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStreamMinerValidation(t *testing.T) {
	if _, err := NewStreamMiner(Params{M: 0, K: 2, Eps: 1}); err == nil {
		t.Fatalf("invalid params should fail")
	}
}

// TestStreamMinerRejectsNonMonotonic is the regression test for the
// documented-but-unchecked contract: timestamps must be strictly
// increasing, and a violating Observe must leave the miner untouched.
func TestStreamMinerRejectsNonMonotonic(t *testing.T) {
	sm, err := NewStreamMiner(Params{M: 2, K: 2, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	if err := sm.Observe(3, pair); err != nil {
		t.Fatal(err)
	}
	if err := sm.Observe(3, pair); err == nil {
		t.Fatal("duplicate timestamp accepted")
	}
	if err := sm.Observe(2, pair); err == nil {
		t.Fatal("decreasing timestamp accepted")
	}
	if last, ok := sm.Last(); !ok || last != 3 {
		t.Fatalf("Last() = %d,%v after rejected observes, want 3,true", last, ok)
	}
	// The rejected snapshots must not have perturbed mining.
	if err := sm.Observe(4, pair); err != nil {
		t.Fatal(err)
	}
	got := sm.Flush()
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2), 3, 4)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestStreamMinerGapReportsWithoutFlush pins down the "gaps close all open
// convoys" contract on the live path: after a gap, the closed convoy is
// observable through Closed() immediately — no Flush needed.
func TestStreamMinerGapReportsWithoutFlush(t *testing.T) {
	sm, err := NewStreamMiner(Params{M: 2, K: 2, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	for _, tt := range []int32{0, 1, 2} {
		if err := sm.Observe(tt, pair); err != nil {
			t.Fatal(err)
		}
	}
	if got := sm.Closed(); len(got) != 0 {
		t.Fatalf("nothing should close while alive: %v", got)
	}
	if err := sm.Observe(10, pair); err != nil { // gap: ticks 3..9 missing
		t.Fatal(err)
	}
	got := sm.Closed()
	want := model.NewConvoy(NewObjSet(1, 2), 0, 2)
	if len(got) != 1 || !got[0].Equal(want) {
		t.Fatalf("closed after gap = %v, want [%v]", got, want)
	}
}

// TestStreamMinerDuplicateOIDsMatchBatch pins the resolution rule for
// duplicate object IDs within one tick's snapshot at the Observe boundary:
// duplicates resolve exactly as model.NewDataset resolves them (stable sort
// by OID, last occurrence wins), so streaming raw records with duplicate
// fixes is byte-identical to batch-mining the same records. Before the rule
// was enforced, Observe clustered both fixes as two distinct points — an
// unasserted divergence from the batch path.
func TestStreamMinerDuplicateOIDsMatchBatch(t *testing.T) {
	p := Params{M: 2, K: 2, Eps: minetest.Eps}
	// Object 1 reports twice per tick: a stale fix near object 3 (which
	// would form a spurious pair) and a final fix near object 2. Last wins,
	// so the convoy must be {1,2}.
	var pts []model.Point
	for tt := int32(0); tt < 4; tt++ {
		pts = append(pts,
			model.Point{OID: 1, T: tt, X: 100},   // stale fix, near object 3
			model.Point{OID: 2, T: tt, X: 0.5},   //
			model.Point{OID: 1, T: tt, X: 0},     // final fix, near object 2
			model.Point{OID: 3, T: tt, X: 101.0}, //
		)
	}
	ds := model.NewDataset(pts)

	sm, err := NewStreamMiner(p)
	if err != nil {
		t.Fatal(err)
	}
	for tt := int32(0); tt < 4; tt++ {
		// Feed the raw per-tick records, duplicates included, in arrival
		// order — not the canonicalized Snapshot.
		raw := []ObjPos{
			{OID: 1, X: 100}, {OID: 2, X: 0.5}, {OID: 1, X: 0}, {OID: 3, X: 101.0},
		}
		if err := sm.Observe(tt, raw); err != nil {
			t.Fatal(err)
		}
	}
	got := sm.Flush()
	want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
	if err != nil {
		t.Fatal(err)
	}
	if !model.ConvoysEqual(got, want.Convoys) {
		t.Fatalf("stream with dup OIDs %v != batch %v", got, want.Convoys)
	}
	if len(got) != 1 || !got[0].Objs.Equal(NewObjSet(1, 2)) {
		t.Fatalf("last fix should win: %v", got)
	}
}

// Randomized version of the duplicate rule: inject duplicate fixes into
// random streams and require stream == batch on the deduped dataset.
func TestStreamMinerDuplicateOIDsRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ds := minetest.Random(seed, 10, 12)
		p := Params{M: 3, K: 4, Eps: minetest.Eps}
		sm, err := NewStreamMiner(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, te := ds.TimeRange()
		for tt := ts; tt <= te; tt++ {
			snap := ds.Snapshot(tt)
			raw := make([]ObjPos, 0, len(snap)+2)
			// A stale fix for two objects arrives first; the canonical
			// position (the snapshot's) arrives later and must win.
			if len(snap) >= 2 {
				raw = append(raw, ObjPos{OID: snap[0].OID, X: snap[0].X + 500, Y: 7})
				raw = append(raw, ObjPos{OID: snap[1].OID, X: snap[1].X - 300, Y: -7})
			}
			raw = append(raw, snap...)
			if err := sm.Observe(tt, raw); err != nil {
				t.Fatal(err)
			}
		}
		got := sm.Flush()
		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want.Convoys) {
			t.Fatalf("seed %d: stream with dup fixes %v != batch %v", seed, got, want.Convoys)
		}
	}
}

func TestStreamMinerReset(t *testing.T) {
	sm, err := NewStreamMiner(Params{M: 2, K: 2, Eps: minetest.Eps})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	for _, tt := range []int32{5, 6, 7} {
		if err := sm.Observe(tt, pair); err != nil {
			t.Fatal(err)
		}
	}
	sm.Reset()
	if _, ok := sm.Last(); ok {
		t.Fatal("Last() valid after Reset")
	}
	// Timestamps from before the reset point are acceptable again, and no
	// pre-reset state leaks into the results.
	for _, tt := range []int32{0, 1, 2} {
		if err := sm.Observe(tt, pair); err != nil {
			t.Fatal(err)
		}
	}
	got := sm.Flush()
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2), 0, 2)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("after reset got %v, want %v", got, want)
	}
}

// TestStreamMinerEdgeInputs streams inputs the random differentials rarely
// produce: empty snapshots between populated ticks, and coordinates whose
// grid cell lies beyond the int32 range (|x| > eps·2³¹) or at ±Inf, which
// the grid saturates into its edge cells. Flush must equal the batch sweep
// over the same records, with every tick — empty ones included — observed.
func TestStreamMinerEdgeInputs(t *testing.T) {
	const eps = 1.5
	far := eps * (1 << 31) * 4 // four times past the last representable cell
	trio := func(x, y float64) []ObjPos {
		return []ObjPos{{OID: 1, X: x, Y: y}, {OID: 2, X: x + 0.5, Y: y}, {OID: 3, X: x + 1, Y: y}}
	}
	with := func(snap []ObjPos, extra ...ObjPos) []ObjPos { return append(append([]ObjPos{}, snap...), extra...) }
	cases := []struct {
		name  string
		ticks [][]ObjPos // ticks[i] is the snapshot of t = i
	}{
		{"empty ticks mid-stream", [][]ObjPos{trio(0, 0), trio(0, 0), nil, trio(0, 0), trio(0, 0), trio(0, 0), nil, nil, trio(0, 0), trio(0, 0)}},
		{"empty first and last ticks", [][]ObjPos{nil, trio(0, 0), trio(0, 0), trio(0, 0), nil}},
		{"beyond eps·2³¹", [][]ObjPos{trio(0, 0), trio(far, 0), trio(far, -far), trio(-far, far), trio(0, 0), trio(1e30, 0), trio(-1e30, 1e30), trio(0, 0)}},
		{"a far object joins and leaves", [][]ObjPos{trio(0, 0), with(trio(0, 0), ObjPos{OID: 4, X: 1e30}), with(trio(0, 0), ObjPos{OID: 4, X: -far, Y: far}), trio(0, 0)}},
		{"±Inf", [][]ObjPos{
			trio(0, 0),
			with(trio(0, 0), ObjPos{OID: 4, X: math.Inf(1)}, ObjPos{OID: 5, X: math.Inf(-1)}, ObjPos{OID: 6, Y: math.Inf(1)}),
			with(trio(0, 0), ObjPos{OID: 4, X: math.Inf(1), Y: math.Inf(-1)}, ObjPos{OID: 5, X: math.Inf(1), Y: math.Inf(-1)}),
			trio(0, 0),
			{{OID: 1, X: math.Inf(1)}, {OID: 2, X: math.Inf(1)}, {OID: 3, X: math.Inf(1)}},
			trio(0, 0), trio(0, 0),
		}},
	}
	for _, tc := range cases {
		for _, p := range []Params{{M: 2, K: 2, Eps: eps}, {M: 3, K: 2, Eps: eps}, {M: 2, K: 3, Eps: eps}} {
			var points []Point
			for tt, snap := range tc.ticks {
				for _, o := range snap {
					points = append(points, Point{OID: o.OID, T: int32(tt), X: o.X, Y: o.Y})
				}
			}
			sm, err := NewStreamMiner(p)
			if err != nil {
				t.Fatal(err)
			}
			for tt, snap := range tc.ticks {
				if err := sm.Observe(int32(tt), snap); err != nil {
					t.Fatalf("%s %+v: observe t=%d: %v", tc.name, p, tt, err)
				}
			}
			got := sm.Flush()
			want, err := Mine(NewMemStore(NewDataset(points)), p, &Options{Algorithm: PCCD})
			if err != nil {
				t.Fatal(err)
			}
			if d := minetest.DiffConvoys("stream", got, "batch", want.Convoys); d != "" {
				t.Fatalf("%s %+v: %s", tc.name, p, d)
			}
			if len(want.Convoys) == 0 {
				t.Fatalf("%s %+v: no convoys, so the case proves nothing", tc.name, p)
			}
		}
	}
}
