package dbscan

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// FuzzDBSCANCluster feeds arbitrary point sets through Cluster, requires
// the grid path to answer exactly the same, and checks the DBSCAN
// invariants against a brute-force O(n²) reference:
//
//   - no cluster below minPts members;
//   - cluster object sets are valid (strictly increasing, duplicate-free);
//   - a core point is in exactly one cluster, and a non-core point is in
//     exactly the clusters of its core neighbours (a border point within
//     reach of two clusters is in both);
//   - the cluster's core points form one eps-connected component;
//   - completeness: two core points within eps of each other share a
//     cluster.
//
// Input encoding: byte 0 → minPts ∈ [1,6], byte 1 → eps ∈ {0.5,…,4.0},
// then 3-byte chunks (oid, x, y) with coordinates as signed bytes, so
// coincident and adjacent points are common. Duplicate OIDs keep the first
// occurrence (snapshots have unique OIDs by model convention).
func FuzzDBSCANCluster(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 'a', 0, 0, 'b', 1, 0, 'c', 2, 0, 'z', 100, 100})
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0}) // minPts 2, coincident-ish line
	f.Add([]byte{5, 7, 10, 5, 5, 11, 5, 6, 12, 6, 5, 13, 6, 6, 14, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		minPts := 1 + int(data[0]%6)
		eps := 0.5 + float64(data[1]%8)*0.5
		const maxPoints = 192 // keep the O(n²) reference cheap
		var objs []model.ObjPos
		seen := map[int32]bool{}
		for i := 2; i+3 <= len(data) && len(objs) < maxPoints; i += 3 {
			oid := int32(int8(data[i]))
			if seen[oid] {
				continue
			}
			seen[oid] = true
			objs = append(objs, model.ObjPos{
				OID: oid,
				X:   float64(int8(data[i+1])),
				Y:   float64(int8(data[i+2])),
			})
		}

		clusters := Cluster(objs, eps, minPts)
		if grid := clusterGrid(objs, eps, minPts); !reflect.DeepEqual(clusters, grid) {
			t.Fatalf("Cluster = %v, clusterGrid = %v", clusters, grid)
		}

		// Brute-force reference: neighbour counts and core flags.
		epsSq := eps * eps
		n := len(objs)
		neighbors := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if model.DistSq(objs[i], objs[j]) <= epsSq {
					neighbors[i] = append(neighbors[i], j)
				}
			}
		}
		core := make([]bool, n)
		for i := range core {
			core[i] = len(neighbors[i]) >= minPts
		}
		idxOf := map[int32]int{}
		for i, p := range objs {
			idxOf[p.OID] = i
		}

		in := make([][]int, n) // point → the clusters holding it, ascending
		for ci, cl := range clusters {
			if len(cl) < minPts {
				t.Fatalf("cluster %d has %d members < minPts %d: %v", ci, len(cl), minPts, cl)
			}
			if !cl.Valid() {
				t.Fatalf("cluster %d is not a valid ObjSet: %v", ci, cl)
			}
			for _, oid := range cl {
				i, ok := idxOf[oid]
				if !ok {
					t.Fatalf("cluster %d contains unknown oid %d", ci, oid)
				}
				in[i] = append(in[i], ci)
			}
		}

		// Membership: a core in one cluster, a non-core point in the
		// clusters of its core neighbours and no other.
		for i := 0; i < n; i++ {
			if core[i] && len(in[i]) != 1 {
				t.Fatalf("core oid %d is in clusters %v, want exactly one", objs[i].OID, in[i])
			}
		}
		for i := 0; i < n; i++ {
			if core[i] {
				continue
			}
			var want []int
			for _, j := range neighbors[i] {
				if core[j] && !slices.Contains(want, in[j][0]) {
					want = append(want, in[j][0])
				}
			}
			slices.Sort(want)
			if !slices.Equal(in[i], want) {
				t.Fatalf("non-core oid %d is in clusters %v, its core neighbours in %v", objs[i].OID, in[i], want)
			}
		}

		// Core-graph connectivity inside each cluster (BFS over cores).
		for ci, cl := range clusters {
			var cores []int
			for _, oid := range cl {
				if i := idxOf[oid]; core[i] {
					cores = append(cores, i)
				}
			}
			if len(cores) == 0 {
				t.Fatalf("cluster %d has no core point", ci)
			}
			reach := map[int]bool{cores[0]: true}
			frontier := []int{cores[0]}
			for len(frontier) > 0 {
				i := frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				for _, j := range neighbors[i] {
					if core[j] && in[j][0] == ci && !reach[j] {
						reach[j] = true
						frontier = append(frontier, j)
					}
				}
			}
			for _, i := range cores {
				if !reach[i] {
					t.Fatalf("cluster %d cores are not eps-connected (oid %d unreachable)", ci, objs[i].OID)
				}
			}
		}

		// Completeness: eps-close cores co-clustered.
		for i := 0; i < n; i++ {
			if !core[i] {
				continue
			}
			for _, j := range neighbors[i] {
				if core[j] && in[i][0] != in[j][0] {
					t.Fatalf("cores oid %d and oid %d are within eps but in clusters %d and %d",
						objs[i].OID, objs[j].OID, in[i][0], in[j][0])
				}
			}
		}
	})
}
