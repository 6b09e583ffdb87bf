package dbscan

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// FuzzIncrementalDBSCAN drives one Incremental through a random *sequence*
// of snapshots — moves (including sub-eps jiggles), appearances, removals,
// no-op ticks, input-order permutations, duplicate OIDs and coincident
// coordinates — and after every tick requires the output to be
// reflect.DeepEqual to a from-scratch Cluster call on the same snapshot,
// and the carried state to pass CheckInvariants. Where FuzzDBSCANCluster
// checks one snapshot against DBSCAN's definition, this target checks the
// *delta machinery*: a cached list missing an edit or edited twice, a
// mis-patched grid entry or a slot-recycling bug surfaces as a byte diff
// against the scratch oracle or, before it can reach the output, as a
// broken invariant.
//
// Input encoding: byte 0 → minPts ∈ [1,6], byte 1 → eps ∈ {0.5,…,4.0},
// then an op stream over a world of ≤ 24 objects (oid = op mod 24):
//
//   - op < 0x50: upsert oid at (x, y) from the next two bytes as signed
//     integers — coarse placement, coincidences common;
//   - op < 0xA0: upsert oid at (x/16, y/16) — sub-eps jiggles;
//   - op < 0xB8: remove oid;
//   - op < 0xD0: a delta relative to where oid is now, picked by the next
//     byte b — b < 0x40: oid and object b mod 24 swap positions; b < 0x80:
//     oid leaves and object b mod 24, if absent, appears at its
//     coordinates; else oid steps by (dx, dy)·eps/4 with dx, dy ∈ [-4, 3]
//     from b's low six bits, so a step can cross the eps boundary of a
//     neighbour with or without changing cell;
//   - else: tick boundary — cluster the current world and compare. The op
//     also picks an input-order variant (as inserted, reversed, rotated, or
//     with a duplicated first entry to force the scratch fallback and
//     rebuild), so cluster ordering and border ties track input order.
//
// The world persists across ticks, so consecutive snapshots differ by
// exactly the ops between two boundaries: genuine deltas, the regime the
// engine carries state through. A final implicit boundary flushes the tail.
func FuzzIncrementalDBSCAN(f *testing.F) {
	f.Add([]byte{})
	// Two triads drifting apart over three ticks.
	f.Add([]byte{2, 2,
		0, 0, 0, 1, 1, 0, 2, 0, 1, 10, 100, 100, 11, 101, 100, 0xE0,
		0, 2, 0, 1, 3, 0, 0xE1,
		10, 50, 50, 0xE2,
	})
	// Churn: appear, remove, reappear coincident.
	f.Add([]byte{3, 1, 5, 10, 10, 6, 10, 10, 7, 11, 10, 0xE0, 0xA5, 0xE1, 5, 10, 10, 0xE3, 0xE4})
	// Sub-eps jiggle stream.
	f.Add([]byte{2, 1, 0, 16, 16, 1, 17, 16, 0xE0, 0x50, 18, 16, 0xE1, 0x51, 17, 17, 0xE2})
	// eps 1.5, minPts 2. Objects 0 and 1 flank the bystanders 2 and 3, step
	// into their range, become neighbours, swap positions and walk apart:
	// both ends of every changed pair are deltas of the same tick.
	f.Add([]byte{1, 2, 0, 1, 0, 1, 5, 0, 2, 3, 1, 3, 3, 0xFF, 0xE0,
		0xC0, 0xBC, 0xC1, 0x8C, 0xE0, 0xC0, 0xAC, 0xC1, 0x9C, 0xE0,
		0xC0, 0x01, 0xE0, 0xC0, 0xBC, 0xC1, 0x8C, 0xE0})
	// Object 5 leaves and 6 appears at its coordinates in one tick, between
	// unchanged 4 and 7; a tick later 5 replaces 6 again, in the slot 5
	// itself freed.
	f.Add([]byte{1, 1, 4, 0, 0, 5, 1, 0, 7, 2, 0, 0xE0, 0xC5, 0x4E, 0xE0, 0xC6, 0x4D, 0xE0})
	// Object 9 leaves; 10 takes its slot far away, then steps into range of
	// 8, 9's old neighbour, and out again.
	f.Add([]byte{1, 1, 8, 0, 0, 9, 1, 0, 0xE0, 0xB1, 0xE0, 10, 40, 40, 0xE0, 10, 1, 0, 0xE0, 10, 40, 0, 0xE0})
	// eps 1: object 1 at x = 1.0 steps to 1.25 and back — same cell, out of
	// and into range of object 0 at x = 0.0625 — while 2 holds position.
	f.Add([]byte{1, 1, 0x60, 1, 8, 0x61, 16, 8, 0x62, 30, 8, 0xE0, 0xC1, 0xAC, 0xE0, 0xC1, 0x9C, 0xE0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		minPts := 1 + int(data[0]%6)
		eps := 0.5 + float64(data[1]%8)*0.5
		inc, err := NewIncremental(eps, minPts)
		if err != nil {
			t.Fatal(err)
		}

		const maxObj = 24
		const maxTicks = 48
		order := []int32{} // insertion order of live OIDs
		world := map[int32]model.ObjPos{}
		ticks := 0

		snapshot := func(variant byte) []model.ObjPos {
			objs := make([]model.ObjPos, 0, len(order)+1)
			for _, oid := range order {
				objs = append(objs, world[oid])
			}
			switch variant % 5 {
			case 1: // reversed
				for i, j := 0, len(objs)-1; i < j; i, j = i+1, j-1 {
					objs[i], objs[j] = objs[j], objs[i]
				}
			case 2: // rotated by one
				if len(objs) > 1 {
					objs = append(objs[1:], objs[0])
				}
			case 3: // duplicate first entry at a shifted position
				if len(objs) > 0 {
					d := objs[0]
					d.X++
					objs = append(objs, d)
				}
			}
			return objs
		}
		step := func(variant byte) {
			objs := snapshot(variant)
			got := inc.Step(objs)
			want := Cluster(objs, eps, minPts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d (variant %d, %d objs): incremental %v != scratch %v",
					ticks, variant%5, len(objs), got, want)
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("tick %d (variant %d, %d objs): %v", ticks, variant%5, len(objs), err)
			}
			ticks++
		}
		upsert := func(oid int32, x, y float64) {
			if _, ok := world[oid]; !ok {
				order = append(order, oid)
			}
			world[oid] = model.ObjPos{OID: oid, X: x, Y: y}
		}
		remove := func(oid int32) {
			if _, ok := world[oid]; ok {
				delete(world, oid)
				order = slices.DeleteFunc(order, func(o int32) bool { return o == oid })
			}
		}

		for i := 2; i < len(data) && ticks < maxTicks; i++ {
			op := data[i]
			oid := int32(op % maxObj)
			switch {
			case op < 0xA0 && i+2 < len(data):
				x, y := float64(int8(data[i+1])), float64(int8(data[i+2]))
				if op >= 0x50 {
					x, y = x/16, y/16
				}
				upsert(oid, x, y)
				i += 2
			case op < 0xA0:
				i = len(data) // truncated upsert: stop
			case op < 0xB8:
				remove(oid)
			case op < 0xD0 && i+1 < len(data):
				i++
				b := data[i]
				p, live := world[oid]
				other := int32(b % maxObj)
				switch q, otherLive := world[other]; {
				case !live:
				case b < 0x40:
					if otherLive {
						upsert(oid, q.X, q.Y)
						upsert(other, p.X, p.Y)
					}
				case b < 0x80:
					if !otherLive {
						remove(oid)
						upsert(other, p.X, p.Y)
					}
				default:
					dx, dy := float64(int(b>>3&7)-4), float64(int(b&7)-4)
					upsert(oid, p.X+dx*eps/4, p.Y+dy*eps/4)
				}
			case op < 0xD0:
				i = len(data) // truncated relative delta: stop
			default:
				step(op)
			}
		}
		if ticks < maxTicks {
			step(0) // flush the tail
		}
	})
}
