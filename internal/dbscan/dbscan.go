// Package dbscan implements density-based clustering of 2-D object
// positions (Ester et al., KDD'96) with a uniform-grid spatial index, which
// is the clustering substrate every convoy miner in this repository builds
// on.
//
// Convoy semantics (paper §3.1): an (m,eps)-cluster is a maximal set of
// density-connected objects of size ≥ m. Running DBSCAN with minPts = m and
// radius eps yields exactly those clusters; noise points belong to no
// cluster. Border points are assigned to the first cluster that reaches
// them, matching the reference implementations the paper compares against.
//
// The grid index buckets points into eps×eps cells, so an eps-neighbourhood
// query inspects at most the 3×3 surrounding cells: expected O(1) per query
// for non-degenerate data, O(n) per clustering run, instead of the O(n²) of
// index-free DBSCAN that the paper identifies as a bottleneck.
package dbscan

import (
	"slices"

	"repro/internal/model"
)

const (
	unvisited = -2 // not yet processed
	noise     = -1 // processed, not (yet) in any cluster
)

// Cluster runs DBSCAN over objs and returns the (minPts,eps)-clusters as
// sorted object sets in deterministic order. Objects that end up as noise
// are omitted. The input slice is not modified.
//
// Cluster is goroutine-safe: it holds no package state and allocates its
// index, labels and buffers per call, so independent calls may run
// concurrently (the parallel k/2-hop phases rely on this). Concurrent
// calls must not mutate a shared input slice while a call is in flight.
func Cluster(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	if n == 0 || minPts <= 0 || n < minPts {
		return nil
	}
	ix := NewIndex(objs, eps)
	epsSq := eps * eps
	buf := make([]int32, 2*n) // int32 halves the per-call zeroing cost
	order, labels := buf[:n], buf[n:]
	for i := range order {
		order[i] = int32(i)
	}
	var nbuf []int32 // neighbour buffer, reused across queries
	return expand(order, labels, objs, minPts, func(id int32) []int32 {
		nbuf = ix.Within(objs[id], epsSq, 1, nbuf[:0])
		return nbuf
	})
}

// expand is DBSCAN's control flow, the one copy scratch Cluster and
// Incremental share: a seed scan over the point ids in order (input
// order), BFS expansion through core points, first-reach border
// assignment, and the sub-minPts discard guard. pos and labels are
// id-addressed; labels is scratch space. neighbors(id) returns the ids
// within eps of id, itself included, and is asked at most once per point;
// its answer is read before the next call, so the callee may reuse one
// buffer.
//
// The output is a function of the order and of the neighbourhoods as sets:
// a cluster is everything density-reachable from its seed, whichever way
// the frontier is walked, and is sorted before it is returned; clusters
// come out in the order of their seeds; and a border point within reach of
// several clusters goes to the one whose seed comes first, not to whichever
// list names it first.
func expand(order, labels []int32, pos []model.ObjPos, minPts int, neighbors func(id int32) []int32) []model.ObjSet {
	for _, i := range order {
		labels[i] = unvisited
	}
	var clusters []model.ObjSet
	frontier := make([]int32, 0, 256) // BFS queue, reused across seeds; starts on the stack
	for _, i := range order {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		if len(nb) < minPts {
			labels[i] = noise
			continue
		}
		// i is a core point: start a new cluster and expand it BFS-style.
		cid := int32(len(clusters))
		labels[i] = cid
		cluster := model.ObjSet{pos[i].OID}
		frontier = frontier[:0]
		for _, j := range nb {
			if j != i {
				frontier = append(frontier, j)
			}
		}
		for len(frontier) > 0 {
			j := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			switch labels[j] {
			case unvisited:
				labels[j] = cid
				cluster = append(cluster, pos[j].OID)
				if nb := neighbors(j); len(nb) >= minPts {
					// j is core: its whole neighbourhood joins the frontier.
					for _, q := range nb {
						if labels[q] == unvisited || labels[q] == noise {
							frontier = append(frontier, q)
						}
					}
				}
			case noise:
				// Border point previously dismissed as noise.
				labels[j] = cid
				cluster = append(cluster, pos[j].OID)
			}
		}
		if len(cluster) >= minPts {
			// Each point id joins a cluster exactly once (the labels array
			// guards), so after an in-place sort only duplicate OIDs —
			// distinct points sharing an id, which the snapshot contract
			// discourages but Cluster's API does not forbid — can break the
			// ObjSet invariant. The common case is a branch-predicted scan;
			// the dedup pass runs only when a duplicate actually exists.
			slices.Sort(cluster)
			for j := 1; j < len(cluster); j++ {
				if cluster[j] == cluster[j-1] {
					cluster = slices.Compact(cluster)
					break
				}
			}
			clusters = append(clusters, cluster)
		} else {
			// An earlier cluster took border points this seed needed to
			// reach minPts: not an (m,eps)-cluster. Its points go back to
			// noise, where a later cluster may still reach them.
			for _, k := range order {
				if labels[k] == cid {
					labels[k] = noise
				}
			}
		}
	}
	return clusters
}
