package flock

import (
	"fmt"
	"math"

	"repro/internal/cmc"
	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/storage"
)

// Flock is a mined flock: an object set plus an inclusive lifespan. It is
// structurally a model.Convoy; the semantics ("fits one radius-R disk at
// every tick" vs "density-connected at every tick") differ.
type Flock = model.Convoy

// Config carries the flock parameters: ≥ M objects within one disk of
// radius R for ≥ K consecutive timestamps. Workers bounds MineK2Hop's
// parallel phases like core.Config.Workers does (≤ 0 = one worker per
// core, 1 = the sequential path; output is identical either way); Sweep
// is inherently sequential and ignores it.
type Config struct {
	M       int
	K       int
	R       float64
	Workers int
}

// Sweep mines maximal flocks with the classical timestamp sweep
// (Gudmundsson & van Kreveld / Vieira et al.): candidate disks at every
// timestamp, CMC-style intersection across time. It is the baseline and
// oracle for MineK2Hop, and a thin loop over the streaming Miner, so the
// batch sweep and the convoyd feed mode share one code path.
func Sweep(store storage.Store, cfg Config) ([]Flock, error) {
	ts, te := store.TimeRange()
	mn := NewMiner(cfg)
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, fmt.Errorf("flock: snapshot %d: %w", t, err)
		}
		mn.Step(t, snap)
	}
	return mn.Finish(), nil
}

// Miner is the streaming flock miner fed one snapshot at a time: each
// Step covers the snapshot with maximal candidate disks (DiskGroups) and
// feeds them to the shared sweep engine (cmc.Miner), which does the
// cross-tick intersection, domination pruning and emission; its postings
// handle the overlapping groups a disk cover produces. It mirrors
// cmc.Miner's streaming surface; gaps in the timestamp sequence close every
// open candidate, exactly as the sweep engine defines. Not safe for
// concurrent use.
type Miner struct {
	cfg Config
	mn  *cmc.Miner
}

// NewMiner creates a streaming flock miner for the given parameters.
func NewMiner(cfg Config) *Miner {
	return &Miner{cfg: cfg, mn: cmc.NewMiner(cfg.M, cfg.K)}
}

// Step feeds the snapshot of timestamp t. Timestamps must be strictly
// increasing (a violation panics, like cmc.Miner.Step).
func (m *Miner) Step(t int32, snap []model.ObjPos) {
	m.mn.Step(t, DiskGroups(snap, m.cfg.R, m.cfg.M))
}

// Drain returns the flocks accepted into the result set since the last
// Drain, in emission order. Like cmc.Miner.Drain, every flock is drained
// exactly once and none is superseded later.
func (m *Miner) Drain() []Flock { return m.mn.Drain() }

// Finish flushes candidates still alive at the final timestamp and returns
// all mined maximal flocks in canonical order — exactly what Sweep returns
// over the same tick sequence.
func (m *Miner) Finish() []Flock { return m.mn.Finish() }

// Last returns the most recently stepped timestamp; ok is false before the
// first Step (and after a Reset).
func (m *Miner) Last() (t int32, ok bool) { return m.mn.Last() }

// Reset returns the miner to its initial state, keeping the parameters.
func (m *Miner) Reset() { m.mn.Reset() }

// MineK2Hop mines maximal flocks with the k/2-hop pipeline: disks are
// computed in full only at benchmark points; candidates are the pairwise
// intersections; hop-windows verify by re-covering only the candidate's
// objects. No connectivity validation is needed — a subset of a disk is in
// the disk — so the generic pipeline's candidates, maximal and in canonical
// order, are final.
//
// This implements the paper's §7 ("the k/2-hop technique can be applied to
// numerous movement patterns such as ... flock patterns").
func MineK2Hop(store storage.Store, cfg Config) ([]Flock, *core.Report, error) {
	ccfg := core.Config{M: cfg.M, K: cfg.K, Eps: cfg.R, Workers: cfg.Workers}
	grouper := func(rows []model.ObjPos) []model.ObjSet { return DiskGroups(rows, cfg.R, cfg.M) }
	out, rep, err := core.MineCandidates(store, ccfg, grouper)
	if err != nil {
		return nil, rep, err
	}
	rep.Convoys = len(out)
	return out, rep, nil
}

// DiskGroups returns the maximal groups of ≥ minSize objects that fit in a
// closed disk of radius r, using the classical candidate-disk construction:
// for every pair of points at distance ≤ 2r there are (at most) two disks
// of radius r with both points on the boundary, and any group fitting some
// radius-r disk is contained in the member set of one of these candidates
// (or of a disk centred on a single point, for groups whose SEC is a
// point). Groups that are subsets of other groups are dropped — CMC-style
// sweeping and the k/2-hop pipeline both only need maximal covers.
func DiskGroups(rows []model.ObjPos, r float64, minSize int) []model.ObjSet {
	n := len(rows)
	if n < minSize || minSize < 1 {
		return nil
	}
	// Cells of side r. The reach of each query is one cell more than its
	// radius spans, and membership allows for the rounding of a computed
	// centre: a point on a candidate disk's boundary is inside it.
	ix := dbscan.NewIndex(rows, r)
	memberSq, pairSq := r*r*(1+1e-12)+1e-12, (2*r)*(2*r)
	var ids []int32
	members := func(c model.ObjPos) model.ObjSet {
		ids = ix.Within(c, memberSq, 2, ids[:0])
		for k, i := range ids {
			ids[k] = rows[i].OID
		}
		return model.NewObjSet(ids...)
	}
	seen := map[string]bool{}
	var keyBuf []byte
	var groups []model.ObjSet
	add := func(set model.ObjSet) {
		if len(set) < minSize {
			return
		}
		keyBuf = set.AppendKey(keyBuf[:0])
		if seen[string(keyBuf)] {
			return
		}
		seen[string(keyBuf)] = true
		groups = append(groups, set)
	}
	// Singleton-centred disks (cover co-located points and tiny groups).
	for _, p := range rows {
		add(members(p))
	}
	// Pair-boundary disks, each pair once. The index answers cell-major and
	// in input order inside a cell, which fixes the order groups come out in.
	var near []int32
	for i, p := range rows {
		near = ix.Within(p, pairSq, 3, near[:0])
		for _, j := range near {
			if int(j) <= i {
				continue
			}
			for _, c := range diskCentersThrough(p, rows[j], r) {
				add(members(c))
			}
		}
	}
	// Maximality filter: drop subset groups.
	var out []model.ObjSet
	for i, gi := range groups {
		dominated := false
		for j, gj := range groups {
			if i == j || len(gi) > len(gj) {
				continue
			}
			if gi.SubsetOf(gj) && (len(gi) < len(gj) || i > j) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, gi)
		}
	}
	return out
}

// diskCentersThrough returns the centres of the radius-r circles passing
// through both a and b (none when they are further than 2r apart).
func diskCentersThrough(a, b model.ObjPos, r float64) []model.ObjPos {
	dx, dy := b.X-a.X, b.Y-a.Y
	d2 := dx*dx + dy*dy
	if d2 > 4*r*r || d2 == 0 {
		return nil
	}
	mx, my := (a.X+b.X)/2, (a.Y+b.Y)/2
	h := math.Sqrt(r*r - d2/4)
	d := math.Sqrt(d2)
	// Unit normal to ab.
	nx, ny := -dy/d, dx/d
	return []model.ObjPos{
		{X: mx + nx*h, Y: my + ny*h},
		{X: mx - nx*h, Y: my - ny*h},
	}
}
