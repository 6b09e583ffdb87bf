package dbscan

import (
	"fmt"
	"slices"
)

// CheckInvariants verifies the carried state after a Step, independently of
// how the tick's deltas were applied: the grid holds exactly the live slots
// at their cells, every live slot's cached list equals — as a set — a fresh
// grid query at its position, membership is symmetric, no list names a
// freed slot, freed slots hold no list, and totalEdges is the sum of the
// list lengths. It lives in a test file: the unit, fuzz and differential
// tests of this directory call it after every Step. The queries it runs do
// not show in Stats.
func (inc *Incremental) CheckInvariants() error {
	if !inc.valid {
		if len(inc.oidSlot)+len(inc.alive)+len(inc.idx.entries)+len(inc.nbr)+inc.totalEdges != 0 {
			return fmt.Errorf("invalid engine still carries state")
		}
		return nil
	}
	saved := inc.stats
	defer func() { inc.stats = saved }()

	live := make(map[int32]bool, len(inc.alive))
	for _, s := range inc.alive {
		if live[s] {
			return fmt.Errorf("slot %d is alive twice", s)
		}
		live[s] = true
		if got, ok := inc.oidSlot[inc.idx.pos[s].OID]; !ok || got != s {
			return fmt.Errorf("slot %d (oid %d): oidSlot says %d, %v", s, inc.idx.pos[s].OID, got, ok)
		}
	}
	if len(inc.oidSlot) != len(inc.alive) {
		return fmt.Errorf("%d oids mapped, %d slots alive", len(inc.oidSlot), len(inc.alive))
	}
	for _, s := range inc.freeSlots {
		if live[s] {
			return fmt.Errorf("slot %d is both alive and free", s)
		}
		if len(inc.nbr[s]) != 0 {
			return fmt.Errorf("free slot %d keeps a list %v", s, inc.nbr[s])
		}
	}
	if len(inc.alive)+len(inc.freeSlots) != len(inc.idx.pos) {
		return fmt.Errorf("%d alive + %d free slots of %d", len(inc.alive), len(inc.freeSlots), len(inc.idx.pos))
	}

	if len(inc.idx.entries) != len(inc.alive) {
		return fmt.Errorf("grid holds %d entries for %d live slots", len(inc.idx.entries), len(inc.alive))
	}
	inGrid := make(map[int32]bool, len(inc.idx.entries))
	for i, e := range inc.idx.entries {
		switch {
		case !live[e.id]:
			return fmt.Errorf("grid entry %d names dead slot %d", i, e.id)
		case inGrid[e.id]:
			return fmt.Errorf("slot %d is in the grid twice", e.id)
		case e.key != inc.idx.keyOf(inc.idx.pos[e.id]):
			return fmt.Errorf("slot %d sits under the wrong cell key", e.id)
		case i > 0 && inc.idx.entries[i-1].key > e.key:
			return fmt.Errorf("grid entries out of key order at %d", i)
		}
		inGrid[e.id] = true
	}

	edges := 0
	for _, s := range inc.alive {
		cached := slices.Clone(inc.nbr[s])
		edges += len(cached)
		fresh := inc.query(s, nil)
		slices.Sort(cached)
		slices.Sort(fresh)
		if !slices.Equal(cached, fresh) {
			return fmt.Errorf("slot %d (oid %d): cached list %v, fresh query %v", s, inc.idx.pos[s].OID, cached, fresh)
		}
		for _, t := range cached {
			if !live[t] {
				return fmt.Errorf("slot %d lists freed slot %d", s, t)
			}
			if !slices.Contains(inc.nbr[t], s) {
				return fmt.Errorf("slot %d lists %d but not the reverse", s, t)
			}
		}
	}
	if edges != inc.totalEdges {
		return fmt.Errorf("totalEdges %d, lists sum to %d", inc.totalEdges, edges)
	}
	return nil
}
