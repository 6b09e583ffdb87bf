package dbscan

import "repro/internal/model"

// SparsePoints counts the points of objs whose 3×3 block of eps-sided cells
// holds fewer than minPts points: the points Cluster's grid path labels
// without scanning a neighbourhood.
func SparsePoints(objs []model.ObjPos, eps float64, minPts int) int {
	n, ix := 0, NewIndex(objs, eps)
	ix.blocks(func(cell []int32, block [6]int32) {
		if blockSize(block[:]) < minPts {
			n += len(cell)
		}
	})
	return n
}
