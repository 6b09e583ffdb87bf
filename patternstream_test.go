package convoy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

func TestStreamMinerBasic(t *testing.T) {
	sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: Params{M: 2, K: 3, Eps: minetest.Eps}})
	if err != nil {
		t.Fatal(err)
	}
	near := func(oid int32, x float64) ObjPos { return ObjPos{OID: oid, X: x} }
	// Pair together ticks 0..4, then apart.
	for tt := int32(0); tt < 5; tt++ {
		sm.Observe(tt, []ObjPos{near(1, 0), near(2, 1)})
	}
	if got := resultConvoys(sm.Closed()); len(got) != 0 {
		t.Fatalf("nothing should close while alive: %v", got)
	}
	sm.Observe(5, []ObjPos{near(1, 0), near(2, 500)})
	got := resultConvoys(sm.Closed())
	want := model.NewConvoy(NewObjSet(1, 2), 0, 4)
	if len(got) != 1 || !got[0].Equal(want) {
		t.Fatalf("closed = %v, want %v", got, want)
	}
	// No duplicate reporting.
	sm.Observe(6, []ObjPos{near(1, 0), near(2, 500)})
	if got := resultConvoys(sm.Closed()); len(got) != 0 {
		t.Fatalf("duplicate close: %v", got)
	}
}

func TestStreamMinerFlushMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ds := minetest.Random(seed, 10, 15)
		ts, te := ds.TimeRange()
		p := Params{M: 3, K: 4, Eps: minetest.Eps}
		sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		for tt := ts; tt <= te; tt++ {
			sm.Observe(tt, ds.Snapshot(tt))
		}
		got := resultConvoys(sm.Flush())
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
	sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: Params{M: 2, K: 2, Eps: minetest.Eps}})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	sm.Observe(0, pair)
	sm.Observe(1, pair)
	sm.Observe(10, pair) // gap
	sm.Observe(11, pair)
	got := resultConvoys(sm.Flush())
	want := []Convoy{
		model.NewConvoy(NewObjSet(1, 2), 0, 1),
		model.NewConvoy(NewObjSet(1, 2), 10, 11),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStreamMinerValidation(t *testing.T) {
	if _, err := NewPatternMiner(PatternConvoy, PatternParams{Params: Params{M: 0, K: 2, Eps: 1}}); err == nil {
		t.Fatalf("invalid params should fail")
	}
}

// TestStreamMinerRejectsNonMonotonic is the regression test for the
// documented-but-unchecked contract: timestamps must be strictly
// increasing, and a violating Observe must leave the miner untouched.
func TestStreamMinerRejectsNonMonotonic(t *testing.T) {
	sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: Params{M: 2, K: 2, Eps: minetest.Eps}})
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
	// The rejected snapshots must not have perturbed mining.
	if err := sm.Observe(4, pair); err != nil {
		t.Fatal(err)
	}
	got := resultConvoys(sm.Flush())
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2), 3, 4)}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestStreamMinerGapReportsWithoutFlush pins down the "gaps close all open
// convoys" contract on the live path: after a gap, the closed convoy is
// observable through Closed() immediately — no Flush needed.
func TestStreamMinerGapReportsWithoutFlush(t *testing.T) {
	sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: Params{M: 2, K: 2, Eps: minetest.Eps}})
	if err != nil {
		t.Fatal(err)
	}
	pair := []ObjPos{{OID: 1, X: 0}, {OID: 2, X: 1}}
	for _, tt := range []int32{0, 1, 2} {
		if err := sm.Observe(tt, pair); err != nil {
			t.Fatal(err)
		}
	}
	if got := resultConvoys(sm.Closed()); len(got) != 0 {
		t.Fatalf("nothing should close while alive: %v", got)
	}
	if err := sm.Observe(10, pair); err != nil { // gap: ticks 3..9 missing
		t.Fatal(err)
	}
	got := resultConvoys(sm.Closed())
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

	sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: p})
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
	got := resultConvoys(sm.Flush())
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
		sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: p})
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
		got := resultConvoys(sm.Flush())
		want, err := MineDataset(ds, p, &Options{Algorithm: PCCD})
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want.Convoys) {
			t.Fatalf("seed %d: stream with dup fixes %v != batch %v", seed, got, want.Convoys)
		}
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
			sm, err := NewPatternMiner(PatternConvoy, PatternParams{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			for tt, snap := range tc.ticks {
				if err := sm.Observe(int32(tt), snap); err != nil {
					t.Fatalf("%s %+v: observe t=%d: %v", tc.name, p, tt, err)
				}
			}
			got := resultConvoys(sm.Flush())
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

// fuzzPatternInput is one decoded FuzzPatternMiner input: a family, its
// parameters, and the Observe calls to make, rejected ones included.
type fuzzPatternInput struct {
	pat   Pattern
	pp    PatternParams
	ticks []fuzzPatternTick
}

type fuzzPatternTick struct {
	t   int32
	pos []ObjPos
}

// decodeFuzzPattern turns fuzz bytes into a pattern stream. The first byte
// picks the family (bits 0–1), M (bit 2: 2 or 3), K (bit 3: 2 or 3) and θ
// (bit 4: 0.5 or 1). Each tick is one header byte — bits 0–1 the timestamp
// step (+1; a gap, +2 or +3 by bit 5; the same timestamp again; −1), bits
// 2–4 the point count — then one byte per point: the OID in bits
// 0–2, so duplicates are common, and x, y in bits 3–4 and 5–7 on a unit
// grid, so eps = 1.5 groups neighbours.
func decodeFuzzPattern(data []byte) fuzzPatternInput {
	var in fuzzPatternInput
	var h byte
	if len(data) > 0 {
		h = data[0]
	}
	in.pat = [...]Pattern{PatternConvoy, PatternFlock, PatternMC, PatternMC}[h&3]
	in.pp = PatternParams{Params: Params{M: 2 + int(h>>2&1), K: 2 + int(h>>3&1), Eps: 1.5}, Theta: 0.5}
	if h&16 != 0 {
		in.pp.Theta = 1
	}
	t := int32(0)
	for i := 1; i < len(data) && len(in.ticks) < 48; {
		h := data[i]
		i++
		switch h & 3 {
		case 0:
			t++
		case 1:
			t += 2 + int32(h>>5&1)
		case 3:
			t--
		}
		var pos []ObjPos
		for n := int(h >> 2 & 7); n > 0 && i < len(data); n-- {
			b := data[i]
			i++
			pos = append(pos, ObjPos{OID: int32(b & 7), X: float64(b >> 3 & 3), Y: float64(b >> 5)})
		}
		in.ticks = append(in.ticks, fuzzPatternTick{t: t, pos: pos})
	}
	return in
}

// FuzzPatternMiner streams fuzz-chosen ticks through each family's
// PatternMiner — duplicate OIDs, gaps, and repeated or decreasing
// timestamps included — and holds it to the batch miner over the records
// of the accepted ticks: an Observe whose timestamp does not advance must
// fail and leave the miner untouched, Flush must equal the batch result,
// and the Closed calls after every Observe and after the Flush must report
// exactly Flush's patterns, each once.
func FuzzPatternMiner(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzPattern(data)
		pm, err := NewPatternMiner(in.pat, in.pp)
		if err != nil {
			t.Fatal(err)
		}
		var points []Point
		var closed []PatternResult
		last, started := int32(0), false
		for _, tk := range in.ticks {
			err := pm.Observe(tk.t, tk.pos)
			if rejected := started && tk.t <= last; rejected != (err != nil) {
				t.Fatalf("Observe(t=%d) after t=%d (started %v): err = %v", tk.t, last, started, err)
			}
			got := pm.Closed()
			if err != nil {
				if len(got) != 0 {
					t.Fatalf("rejected Observe(t=%d) closed %v", tk.t, got)
				}
				continue
			}
			last, started = tk.t, true
			closed = append(closed, got...)
			for _, p := range tk.pos {
				points = append(points, Point{OID: p.OID, T: tk.t, X: p.X, Y: p.Y})
			}
		}
		final := pm.Flush()
		closed = append(closed, pm.Closed()...)

		store := NewMemStore(NewDataset(points))
		pp := in.pp
		switch in.pat {
		case PatternMC:
			want, err := MineMovingClusters(store, pp)
			if err != nil {
				t.Fatal(err)
			}
			if sg, sb := canonMCResults(final), canonMCs(want); sg != sb {
				t.Fatalf("stream:\n%s\nbatch:\n%s", sg, sb)
			}
		default:
			var want []Convoy
			if in.pat == PatternFlock {
				want, err = MineFlocks(store, pp, true)
			} else {
				var res *Result
				if res, err = Mine(store, pp.Params, &Options{Algorithm: PCCD}); err == nil {
					want = res.Convoys
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if sg, sb := minetest.Canonical(resultConvoys(final)), minetest.Canonical(want); sg != sb {
				t.Fatalf("stream:\n%s\nbatch:\n%s", sg, sb)
			}
		}

		// A pattern's identity: its footprint and, for moving clusters, the
		// chain itself, since two chains can share a footprint.
		id := func(r PatternResult) string { return fmt.Sprint(r.Key(), r.Clusters) }
		seen := map[string]int{}
		for _, r := range closed {
			seen[id(r)]++
		}
		for _, r := range final {
			if n := seen[id(r)]; n != 1 {
				t.Fatalf("Closed reported %v %d times, want once", r.Convoy, n)
			}
		}
		if len(closed) != len(final) {
			t.Fatalf("Closed reported %d patterns, Flush %d", len(closed), len(final))
		}
	})
}
