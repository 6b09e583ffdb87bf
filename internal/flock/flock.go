package flock

import (
	"fmt"
	"math"

	"repro/internal/cmc"
	"repro/internal/core"
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

// Miner is the incremental flock miner fed one snapshot at a time: each
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
// the disk — so the generic pipeline's candidates are final (after a
// maximality filter).
//
// This implements the paper's §7 ("the k/2-hop technique can be applied to
// numerous movement patterns such as ... flock patterns").
func MineK2Hop(store storage.Store, cfg Config) ([]Flock, *core.Report, error) {
	ccfg := core.DefaultConfig(cfg.M, cfg.K, cfg.R)
	ccfg.Workers = cfg.Workers
	grouper := core.Grouper{
		Benchmark:  func(rows []model.ObjPos) []model.ObjSet { return DiskGroups(rows, cfg.R, cfg.M) },
		Restricted: func(rows []model.ObjPos) []model.ObjSet { return DiskGroups(rows, cfg.R, cfg.M) },
	}
	cands, rep, err := core.MineCandidates(store, ccfg, grouper)
	if err != nil {
		return nil, rep, err
	}
	out := model.MaximalConvoys(cands)
	if rep != nil {
		rep.Convoys = len(out)
	}
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
	g := newDiskGrid(rows, r)
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
	for i := range rows {
		add(g.members(rows[i].X, rows[i].Y, r))
	}
	// Pair-boundary disks.
	for i := 0; i < n; i++ {
		for _, j := range g.near(i, 2*r) {
			if j <= i {
				continue
			}
			for _, c := range diskCentersThrough(rows[i], rows[j], r) {
				add(g.members(c.X, c.Y, r))
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
func diskCentersThrough(a, b model.ObjPos, r float64) []struct{ X, Y float64 } {
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
	return []struct{ X, Y float64 }{
		{X: mx + nx*h, Y: my + ny*h},
		{X: mx - nx*h, Y: my - ny*h},
	}
}

// diskGrid is a uniform grid over the rows with cell side r, answering
// "members within r of (x,y)" and "indices within d of row i".
type diskGrid struct {
	rows []model.ObjPos
	r    float64
	cell map[[2]int32][]int
}

func newDiskGrid(rows []model.ObjPos, r float64) *diskGrid {
	if r <= 0 {
		r = math.SmallestNonzeroFloat64
	}
	g := &diskGrid{rows: rows, r: r, cell: make(map[[2]int32][]int, len(rows))}
	for i, p := range rows {
		k := g.key(p.X, p.Y)
		g.cell[k] = append(g.cell[k], i)
	}
	return g
}

func (g *diskGrid) key(x, y float64) [2]int32 {
	return [2]int32{int32(math.Floor(x / g.r)), int32(math.Floor(y / g.r))}
}

// members returns the OIDs of all rows within dist of (x, y), sorted.
func (g *diskGrid) members(x, y, dist float64) model.ObjSet {
	span := int32(math.Ceil(dist/g.r)) + 1
	center := g.key(x, y)
	var ids []int32
	d2 := dist * dist
	for cx := center[0] - span; cx <= center[0]+span; cx++ {
		for cy := center[1] - span; cy <= center[1]+span; cy++ {
			for _, i := range g.cell[[2]int32{cx, cy}] {
				dx, dy := g.rows[i].X-x, g.rows[i].Y-y
				if dx*dx+dy*dy <= d2*(1+1e-12)+1e-12 {
					ids = append(ids, g.rows[i].OID)
				}
			}
		}
	}
	return model.NewObjSet(ids...)
}

// near returns the indices of rows within dist of row i (excluding i).
func (g *diskGrid) near(i int, dist float64) []int {
	p := g.rows[i]
	span := int32(math.Ceil(dist/g.r)) + 1
	center := g.key(p.X, p.Y)
	var out []int
	d2 := dist * dist
	for cx := center[0] - span; cx <= center[0]+span; cx++ {
		for cy := center[1] - span; cy <= center[1]+span; cy++ {
			for _, j := range g.cell[[2]int32{cx, cy}] {
				if j == i {
					continue
				}
				dx, dy := g.rows[j].X-p.X, g.rows[j].Y-p.Y
				if dx*dx+dy*dy <= d2 {
					out = append(out, j)
				}
			}
		}
	}
	return out
}
