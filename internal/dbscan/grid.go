package dbscan

import (
	"math"

	"repro/internal/model"
)

// Index is the repository's one spatial index: a uniform grid over
// id-addressed positions. Cluster builds one per call above smallN points,
// and the flock disk cover (flock.DiskGroups) queries one with a wider
// reach. All points within reach·cell of a point p lie in the
// (2·reach+1)² block of cells around p's cell.
//
// The index holds every id's packed cell key and the ids sorted by
// (key, id) — no hash map. Cell coordinates pack into one ordered uint64
// (offset-encoded so negative coordinates sort correctly), which makes the
// cells of one grid column a single contiguous key range: a query is one
// binary search plus one linear scan over adjacent ids per column.
// Compared to a map from cell to id slice this removes all hashing from
// the query path and all per-cell slice growth from construction — the two
// biggest CPU and allocation sinks the k/2-hop profile showed, since every
// scratch clustering above a handful of points builds a fresh index.
// Cluster goes one step further: blocks finds every cell's 3×3 block in
// one sweep, so its queries need no search at all.
type Index struct {
	pos  []model.ObjPos // id → position; not copied, must not change under the index
	cell float64        // cell side
	keys []uint64       // id → packed cell key
	ids  []int32        // the ids in (key, id) order
}

// NewIndex indexes pos, whose slice indices are the ids queries return,
// with cells of the given side.
func NewIndex(pos []model.ObjPos, cell float64) Index {
	ix, _ := newIndex(pos, cell, make([]int32, 2*len(pos)))
	return ix
}

// newIndex is NewIndex sorting in buf, which has room for 2·len(pos) ids:
// the sorted ids end up in one half, and the other, the sort's scratch, is
// returned for the caller to reuse.
func newIndex(pos []model.ObjPos, cell float64, buf []int32) (Index, []int32) {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		// Degenerate radius: every point is only its own neighbour. Use a
		// tiny positive cell so keys stay finite.
		cell = math.SmallestNonzeroFloat64
	}
	ix := Index{pos: pos, cell: cell}
	n := len(pos)
	spare := ix.build(buf[:n], buf[n:2*n])
	return ix, spare
}

// build computes keys and sorts the ids by (key, id), in ids with buf as
// the sort's scratch, and returns the one of the two it left unused. In
// (key, id) order every query answers cell-major with ids ascending inside
// a cell, the order the disk cover's output sequence is defined by.
//
// The sort is a stable LSD radix sort on the key rebased to the lowest cx
// and cy in the input, so it makes one pass per byte of each axis's cell
// range, wherever the range lies in int32: two passes on every T-Drive,
// Brinkhoff and City snapshot the benchmark clusters (most T-Drive cells
// straddle 0, where the key itself differs in all four bytes of cx). The
// ids go in ascending, and stability keeps them so inside a cell.
func (ix *Index) build(ids, buf []int32) (spare []int32) {
	keys := make([]uint64, len(ix.pos))
	xLo, yLo, xHi, yHi := uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(0), uint32(0)
	for id, p := range ix.pos {
		k := ix.keyOf(p)
		keys[id], ids[id] = k, int32(id)
		x, y := uint32(k>>32), uint32(k)
		xLo, yLo, xHi, yHi = min(xLo, x), min(yLo, y), max(xHi, x), max(yHi, y)
	}
	// key − base is (cx − min cx, cy − min cy) packed as the key is: no
	// borrow crosses the halves, and it orders the ids as the key does.
	base := uint64(xLo)<<32 | uint64(yLo)
	for shift := uint(0); shift < 64; shift += 8 {
		if shift < 32 && (yHi-yLo)>>shift == 0 || shift >= 32 && (xHi-xLo)>>(shift-32) == 0 {
			continue // this byte is 0 in every rebased key
		}
		var at [256]int32 // bucket counts, then each bucket's next slot
		for _, id := range ids {
			at[byte((keys[id]-base)>>shift)]++
		}
		sum := int32(0)
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, id := range ids {
			b := byte((keys[id] - base) >> shift)
			buf[at[b]] = id
			at[b]++
		}
		ids, buf = buf, ids
	}
	ix.keys, ix.ids = keys, ids
	return buf
}

// packKey builds the ordered cell key: biased cx in the high 32 bits,
// biased cy in the low. Lexicographic (cx, cy) order equals numeric key
// order, so cells (cx, cyLo..cyHi) occupy the contiguous key range
// [packKey(cx,cyLo), packKey(cx,cyHi)].
func packKey(cx, cy int32) uint64 {
	return uint64(uint32(cx)^0x80000000)<<32 | uint64(uint32(cy)^0x80000000)
}

// unpackKey is packKey's inverse.
func unpackKey(key uint64) (cx, cy int32) {
	return int32(uint32(key>>32) ^ 0x80000000), int32(uint32(key) ^ 0x80000000)
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
	keys, ids := ix.keys, ix.ids
	for cx := cxLo; ; cx++ {
		lo, hi := packKey(cx, cyLo), packKey(cx, cyHi)
		// First id with key ≥ lo (manual binary search keeps this
		// allocation-free and inlinable).
		a, b := 0, len(ids)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if keys[ids[mid]] < lo {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for ; a < len(ids) && keys[ids[a]] <= hi; a++ {
			if model.DistSq(p, ix.pos[ids[a]]) <= distSq {
				dst = append(dst, ids[a])
			}
		}
		if cx == cxHi { // not the loop condition: cx++ would wrap past MaxInt32
			return dst
		}
	}
}

// blocks calls visit once for every distinct cell, in key order, with the
// cell's ids and its 3×3 block: the half-open ranges [lo, hi) of the
// sorted ids that hold the block's columns cx−1, cx and cx+1, each over
// rows cy−1..cy+1, which are the ids Within(p, ·, 1, ·) scans for a point
// p of the cell; a column beyond the int32 cells is empty, as it is to
// Within. The blocks of successive cells move monotonically through the
// ids, so each range bound is a pointer that only moves forward, and the
// sweep is O(n).
func (ix *Index) blocks(visit func(cell []int32, block [6]int32)) {
	keys, ids := ix.keys, ix.ids
	// Per column, the first id with key ≥ the block's lowest and the first
	// with key > its highest.
	var lo0, hi0, lo1, hi1, lo2, hi2 int
	for s := 0; s < len(ids); {
		key := keys[ids[s]]
		end := s + 1
		for end < len(ids) && keys[ids[end]] == key {
			end++
		}
		cx, cy := unpackKey(key)
		cyLo, cyHi := span(cy, 1)
		var block [6]int32
		if cx > math.MinInt32 {
			lo0, hi0 = ix.column(lo0, hi0, packKey(cx-1, cyLo), packKey(cx-1, cyHi))
			block[0], block[1] = int32(lo0), int32(hi0)
		}
		lo1, hi1 = ix.column(lo1, hi1, packKey(cx, cyLo), packKey(cx, cyHi))
		block[2], block[3] = int32(lo1), int32(hi1)
		if cx < math.MaxInt32 {
			lo2, hi2 = ix.column(lo2, hi2, packKey(cx+1, cyLo), packKey(cx+1, cyHi))
			block[4], block[5] = int32(lo2), int32(hi2)
		}
		visit(ids[s:end], block)
		s = end
	}
}

// column moves lo and hi forward to the ids of the keys kLo..kHi.
func (ix *Index) column(lo, hi int, kLo, kHi uint64) (int, int) {
	for lo < len(ix.ids) && ix.keys[ix.ids[lo]] < kLo {
		lo++
	}
	for hi < len(ix.ids) && ix.keys[ix.ids[hi]] <= kHi {
		hi++
	}
	return lo, hi
}

// cells returns the number of distinct cells that hold an indexed point.
func (ix *Index) cells() int {
	n := 0
	for i, id := range ix.ids {
		if i == 0 || ix.keys[id] != ix.keys[ix.ids[i-1]] {
			n++
		}
	}
	return n
}

// blockSize is the number of points in a block.
func blockSize(block []int32) int {
	return int(block[1] - block[0] + block[3] - block[2] + block[5] - block[4])
}

// near appends to dst the ids in a block whose points lie within distSq
// of p, and returns the extended slice.
func (ix *Index) near(p model.ObjPos, block []int32, distSq float64, dst []int32) []int32 {
	for d := 0; d < 6; d += 2 {
		for _, id := range ix.ids[block[d]:block[d+1]] {
			if model.DistSq(p, ix.pos[id]) <= distSq {
				dst = append(dst, id)
			}
		}
	}
	return dst
}
