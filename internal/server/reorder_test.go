package server

import (
	"slices"
	"testing"

	"repro/internal/model"
)

func pos(oids ...int32) []model.ObjPos {
	out := make([]model.ObjPos, len(oids))
	for i, o := range oids {
		out[i] = model.ObjPos{OID: o, X: float64(o)}
	}
	return out
}

func ticksOf(ts []tick) []int32 {
	out := make([]int32, len(ts))
	for i, t := range ts {
		out[i] = t.t
	}
	return out
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReorderInOrderWindowZero(t *testing.T) {
	b := newReorder(0)
	for tt := int32(0); tt < 5; tt++ {
		ready, late := b.add(tt, pos(1))
		if late {
			t.Fatalf("t=%d: unexpectedly late", tt)
		}
		if !eqI32(ticksOf(ready), []int32{tt}) {
			t.Fatalf("t=%d: ready %v, want [%d]", tt, ticksOf(ready), tt)
		}
	}
	if out := b.drain(); len(out) != 0 {
		t.Fatalf("drain after full release: %v", ticksOf(out))
	}
}

func TestReorderOutOfOrderWithinWindow(t *testing.T) {
	b := newReorder(3)
	order := []int32{2, 0, 1, 3, 5, 4, 6, 9, 7, 8}
	var sealed []int32
	for _, tt := range order {
		ready, late := b.add(tt, pos(1))
		if late {
			t.Fatalf("t=%d late within window", tt)
		}
		sealed = append(sealed, ticksOf(ready)...)
	}
	sealed = append(sealed, ticksOf(b.drain())...)
	want := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !eqI32(sealed, want) {
		t.Fatalf("sealed %v, want %v", sealed, want)
	}
}

func TestReorderLateDropped(t *testing.T) {
	b := newReorder(1)
	b.add(0, pos(1))
	b.add(5, pos(1)) // seals t=0 → watermark 0
	if _, late := b.add(0, pos(1)); !late {
		t.Fatal("t=0 at the watermark should be late")
	}
	// t=3 is between the watermark and the sealing frontier: it can still
	// be sequenced before the pending t=5, so it is accepted and sealed
	// right away (it is already behind the frontier).
	ready, late := b.add(3, pos(1))
	if late {
		t.Fatal("t=3 above the watermark should be accepted")
	}
	if !eqI32(ticksOf(ready), []int32{3}) {
		t.Fatalf("add(3) sealed %v, want [3]", ticksOf(ready))
	}
	if _, late := b.add(5, pos(2)); late {
		t.Fatal("t=5 is pending, not late")
	}
	out := b.drain()
	if !eqI32(ticksOf(out), []int32{5}) {
		t.Fatalf("drain %v, want [5]", ticksOf(out))
	}
	// The two partial snapshots for t=5 merged.
	if len(out[0].pos) != 2 {
		t.Fatalf("merged positions = %v", out[0].pos)
	}
}

func TestReorderPartialSnapshotMergeDedup(t *testing.T) {
	b := newReorder(2)
	b.add(0, []model.ObjPos{{OID: 7, X: 1}, {OID: 3, X: 2}})
	b.add(0, []model.ObjPos{{OID: 7, X: 9}}) // overwrites OID 7: last write wins
	out := b.drain()
	if len(out) != 1 || out[0].t != 0 {
		t.Fatalf("drain = %v", out)
	}
	got := out[0].pos
	if len(got) != 2 || got[0].OID != 3 || got[1].OID != 7 || got[1].X != 9 {
		t.Fatalf("canonical snapshot = %v, want sorted dedup with OID 7 → X=9", got)
	}
}

// TestReorderTakesOwnership: the first part of a tick is kept, not copied —
// the sealed snapshot is the very slice the decoder filled — and a second
// part is merged onto it without disturbing either part's positions.
func TestReorderTakesOwnership(t *testing.T) {
	b := newReorder(0)
	first := []model.ObjPos{{OID: 9, X: 1}, {OID: 2, X: 2}, {OID: 5, X: 3}}
	out, _ := b.add(0, first) // window 0 seals the tick at once
	if len(out) != 1 || len(out[0].pos) != 3 || &out[0].pos[0] != &first[0] {
		t.Fatalf("sealed snapshot %v does not reuse the slice that was added", out)
	}

	b = newReorder(2)
	b.add(4, []model.ObjPos{{OID: 9, X: 1}, {OID: 2, X: 2}})
	b.add(4, []model.ObjPos{{OID: 5, X: 3}})
	got := b.drain()[0].pos
	want := []model.ObjPos{{OID: 2, X: 2}, {OID: 5, X: 3}, {OID: 9, X: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("merged snapshot = %v, want %v", got, want)
	}
}

func TestReorderBounded(t *testing.T) {
	const window = 8
	b := newReorder(window)
	for tt := int32(0); tt < 1000; tt++ {
		b.add(tt, pos(1))
		if n := b.pendingTicks(); n > window+1 {
			t.Fatalf("t=%d: %d pending ticks exceeds window bound %d", tt, n, window+1)
		}
	}
}
