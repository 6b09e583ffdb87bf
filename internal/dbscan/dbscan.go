// Package dbscan implements density-based clustering of 2-D object
// positions (Ester et al., KDD'96) with a uniform-grid spatial index, which
// is the clustering substrate every convoy miner in this repository builds
// on.
//
// Convoy semantics (paper §3.1): an (m,eps)-cluster is a maximal set of
// density-connected objects of size ≥ m. Running DBSCAN with minPts = m and
// radius eps yields exactly those clusters; noise points belong to no
// cluster. A border point within eps of core points of two clusters belongs
// to both (Ester et al.'s maximal density-connected sets), so clusters may
// share border points, and which clusters come out does not depend on the
// input order. At m ≤ 3 no border point can be shared: a non-core point
// has at most one other point within eps.
//
// The grid index buckets points into eps×eps cells, so an eps-neighbourhood
// query inspects at most the 3×3 surrounding cells: expected O(1) per query
// for non-degenerate data, O(n) per clustering run, instead of the O(n²) of
// index-free DBSCAN that the paper identifies as a bottleneck. The O(n²)
// is cheaper only for a handful of points, which is what the k/2-hop
// re-checks cluster almost every time: up to smallN points Cluster tests
// every pair and builds no index.
package dbscan

import (
	"math"
	"slices"

	"repro/internal/model"
)

const (
	unvisited = -2 // not yet processed
	noise     = -1 // processed, not (yet) in any cluster
)

// smallN is the input size up to which Cluster tests every pair of points
// instead of building an Index. The k/2-hop re-checks (HWMT, extension,
// validation) cluster a candidate's few objects: 3–5 in 96 % of calls,
// ≤ 12 in 99.9 %. In BenchmarkClusterSmall the pairwise scan beats the
// grid 2–2.6× at every size from 2 to 32 points, but a larger smallN pays
// off only on the few calls above 16, while the order and label buffers,
// a stack array of 2·smallN slots, are zeroed on every call.
const smallN = 16

// Cluster runs DBSCAN over objs and returns the (minPts,eps)-clusters as
// sorted object sets in deterministic order. Objects that end up as noise
// are omitted. The input slice is not modified.
//
// Up to smallN points with a finite positive eps, Cluster compares every
// pair and builds nothing; larger inputs, and degenerate radii, go to a
// grid Index built for the call. Both paths answer the same neighbourhoods
// and share one expansion, so the choice never shows in the output.
//
// Cluster is goroutine-safe: it holds no package state and keeps its
// index, labels and buffers per call, so independent calls may run
// concurrently (the parallel k/2-hop phases rely on this). Concurrent
// calls must not mutate a shared input slice while a call is in flight.
func Cluster(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	if n == 0 || minPts <= 0 || n < minPts {
		return nil
	}
	if n > smallN || !(eps > 0) || math.IsInf(eps, 1) {
		return clusterGrid(objs, eps, minPts)
	}
	epsSq := eps * eps
	var buf [2 * smallN]int32
	order, labels := buf[:n], buf[smallN:smallN+n]
	for i := range order {
		order[i] = int32(i)
	}
	nbuf := make([]int32, 0, n) // on the heap: the callback returns it
	return expand(order, labels, objs, minPts, func(id int32) []int32 {
		nb, p := nbuf[:0], objs[id]
		for j, q := range objs {
			if model.DistSq(p, q) <= epsSq {
				nb = append(nb, int32(j))
			}
		}
		return nb
	})
}

// clusterGrid is Cluster over a grid Index, for minPts ≥ 1: one binary
// search and a short scan per neighbourhood, after an O(n log n) build.
func clusterGrid(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
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

// expand is DBSCAN's control flow, the one copy both of Cluster's paths
// share: a seed scan over the point ids in order (input order) and BFS
// expansion through core points. pos and labels are id-addressed; labels is
// scratch space. neighbors(id) returns the ids within eps of id, itself
// included, and is asked at most once per point; its answer is read before
// the next call, so the callee may reuse one buffer.
//
// A cluster is one connected component of core points plus every non-core
// point within eps of one of them (Definition 3's maximal density-connected
// set), so a border point next to cores of two components joins both, and
// every cluster holds at least its seed's minPts neighbours. A core point's
// label is its cluster; a non-core point's label is the last cluster it
// joined. Clusters are built one after another, so that label is all the
// guard against joining one twice; and a point an earlier cluster labelled
// is no core, or it would have drawn this cluster's cores in. The set of
// clusters is a function of the neighbourhoods alone; they come out sorted,
// in the order of their seeds (each component's first core in order).
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
		cluster := make(model.ObjSet, 1, len(nb)) // the seed's neighbourhood joins
		cluster[0] = pos[i].OID
		frontier = frontier[:0]
		for _, j := range nb {
			if j != i {
				frontier = append(frontier, j)
			}
		}
		for len(frontier) > 0 {
			j := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if labels[j] == cid {
				continue
			}
			fresh := labels[j] == unvisited
			labels[j] = cid
			cluster = append(cluster, pos[j].OID)
			if !fresh {
				continue // noise, or a border point of an earlier cluster
			}
			if nb := neighbors(j); len(nb) >= minPts {
				// j is core: its whole neighbourhood joins the frontier.
				for _, q := range nb {
					if labels[q] != cid {
						frontier = append(frontier, q)
					}
				}
			}
		}
		// Each point id joins a cluster at most once (the labels array
		// guards), so after an in-place sort only duplicate OIDs — distinct
		// points sharing an id, which the snapshot contract discourages but
		// Cluster's API does not forbid — can break the ObjSet invariant.
		// The common case is a branch-predicted scan; the dedup pass runs
		// only when a duplicate actually exists.
		slices.Sort(cluster)
		for j := 1; j < len(cluster); j++ {
			if cluster[j] == cluster[j-1] {
				cluster = slices.Compact(cluster)
				break
			}
		}
		clusters = append(clusters, cluster)
	}
	return clusters
}
