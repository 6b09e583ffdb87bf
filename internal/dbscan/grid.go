package dbscan

import (
	"math"
	"slices"

	"repro/internal/model"
)

// Index is the repository's one spatial index: a uniform grid over
// id-addressed positions. Scratch Cluster builds one per call above smallN
// points, Incremental carries one across ticks and patches it, and the
// flock disk cover (flock.DiskGroups) queries one with a wider reach. All
// points within reach·cell of a point p lie in the (2·reach+1)² block of
// cells around p's cell.
//
// The index is a flat array of (packed cell key, id) entries sorted by
// (key, id) — no hash map. Cell coordinates pack into one ordered uint64
// (offset-encoded so negative coordinates sort correctly), which makes the
// cells of one grid column a single contiguous key range: a query is one
// binary search plus one linear scan over adjacent memory per column.
// Compared to a map from cell to id slice this removes all hashing from
// the query path and all per-cell slice growth from construction — the two
// biggest CPU and allocation sinks the k/2-hop profile showed, since every
// scratch clustering above a handful of points builds a fresh index.
type Index struct {
	pos     []model.ObjPos // id → position; not copied, must not change under the index
	cell    float64        // cell side
	entries []entry        // in key order; as build leaves them, in (key, id) order
}

// entry locates one id in cell-key order.
type entry struct {
	key uint64
	id  int32
}

// NewIndex indexes pos, whose slice indices are the ids queries return,
// with cells of the given side.
func NewIndex(pos []model.ObjPos, cell float64) Index {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		// Degenerate radius: every point is only its own neighbour. Use a
		// tiny positive cell so keys stay finite.
		cell = math.SmallestNonzeroFloat64
	}
	ix := Index{pos: pos, cell: cell}
	ix.build()
	return ix
}

// build fills entries from pos, one per id, reusing the array. Sorting by
// (key, id) makes every query answer cell-major with ids ascending inside a
// cell — the order the disk cover's output sequence is defined by.
func (ix *Index) build() {
	ix.entries = slices.Grow(ix.entries[:0], len(ix.pos))
	for id, p := range ix.pos {
		ix.entries = append(ix.entries, entry{key: ix.keyOf(p), id: int32(id)})
	}
	slices.SortFunc(ix.entries, func(a, b entry) int {
		// Spelled out: cmp.Compare twice measured a fifth slower, and the
		// sort is a quarter of a scratch clustering.
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.id) - int(b.id)
	})
}

// packKey builds the ordered cell key: biased cx in the high 32 bits,
// biased cy in the low. Lexicographic (cx, cy) order equals numeric key
// order, so cells (cx, cyLo..cyHi) occupy the contiguous key range
// [packKey(cx,cyLo), packKey(cx,cyHi)].
func packKey(cx, cy int32) uint64 {
	return uint64(uint32(cx)^0x80000000)<<32 | uint64(uint32(cy)^0x80000000)
}

// cellOf returns v's cell coordinate saturated to the int32 range, with NaN
// in the bottom cell. Saturating never moves two cells further apart, so
// every point within one cell side of p still lies in the 3×3 block around
// p's cell; a NaN point is nobody's neighbour, so its cell does not matter.
// Coordinates inside the range keep their cells exactly.
func (ix *Index) cellOf(v float64) int32 {
	c := math.Floor(v / ix.cell)
	switch {
	case c >= math.MaxInt32:
		return math.MaxInt32
	case c >= math.MinInt32:
		return int32(c)
	default: // below the range, or NaN
		return math.MinInt32
	}
}

func (ix *Index) keyOf(p model.ObjPos) uint64 { return packKey(ix.cellOf(p.X), ix.cellOf(p.Y)) }

// cellable reports whether p lands in a cell whose coordinates fit int32,
// so that cellOf keeps them unsaturated (NaN fails both comparisons).
// Queries stay exact beyond that, but Incremental's delta reasoning is
// proven only for cellable points and falls back to scratch on any other.
func (ix *Index) cellable(p model.ObjPos) bool {
	cx, cy := math.Floor(p.X/ix.cell), math.Floor(p.Y/ix.cell)
	return cx >= math.MinInt32 && cx <= math.MaxInt32 && cy >= math.MinInt32 && cy <= math.MaxInt32
}

// span returns the cell coordinates c-reach..c+reach clamped at the int32
// extremes: a wrapped coordinate would either skip cells that do hold points
// or scan a far-away column. Cells beyond the extreme cannot exist, so
// clamping only narrows the block to the cells that do.
func span(c, reach int32) (lo, hi int32) {
	return int32(max(int64(c)-int64(reach), math.MinInt32)), int32(min(int64(c)+int64(reach), math.MaxInt32))
}

// Within appends to dst the ids of all indexed points q with
// model.DistSq(p, q) ≤ distSq that lie at most reach cells from p's cell
// in either axis, and returns the extended slice. p need not be an indexed
// point; one that is finds itself.
func (ix *Index) Within(p model.ObjPos, distSq float64, reach int32, dst []int32) []int32 {
	cxLo, cxHi := span(ix.cellOf(p.X), reach)
	cyLo, cyHi := span(ix.cellOf(p.Y), reach)
	e := ix.entries
	for cx := cxLo; ; cx++ {
		lo, hi := packKey(cx, cyLo), packKey(cx, cyHi)
		// First entry with key ≥ lo (manual binary search keeps this
		// allocation-free and inlinable).
		a, b := 0, len(e)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if e[mid].key < lo {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for ; a < len(e) && e[a].key <= hi; a++ {
			if model.DistSq(p, ix.pos[e[a].id]) <= distSq {
				dst = append(dst, e[a].id)
			}
		}
		if cx == cxHi { // not the loop condition: cx++ would wrap past MaxInt32
			return dst
		}
	}
}
