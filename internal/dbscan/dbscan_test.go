package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

func pos(oid int32, x, y float64) model.ObjPos { return model.ObjPos{OID: oid, X: x, Y: y} }

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if got := Cluster(nil, 1, 2); got != nil {
		t.Fatalf("nil input should give nil, got %v", got)
	}
	objs := []model.ObjPos{pos(1, 0, 0)}
	if got := Cluster(objs, 1, 2); got != nil {
		t.Fatalf("fewer points than minPts should give nil, got %v", got)
	}
	if got := Cluster(objs, 1, 0); got != nil {
		t.Fatalf("minPts=0 should give nil, got %v", got)
	}
	if got := Cluster(objs, 0, 1); len(got) != 1 {
		t.Fatalf("eps=0 minPts=1 should give singleton cluster, got %v", got)
	}
}

func TestTwoSeparatedClusters(t *testing.T) {
	objs := []model.ObjPos{
		pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1.0, 0),
		pos(4, 100, 0), pos(5, 100.5, 0), pos(6, 101, 0),
		pos(7, 50, 50), // noise
	}
	got := Cluster(objs, 0.6, 3)
	if len(got) != 2 {
		t.Fatalf("want 2 clusters, got %v", got)
	}
	want1, want2 := model.NewObjSet(1, 2, 3), model.NewObjSet(4, 5, 6)
	found1, found2 := false, false
	for _, c := range got {
		if c.Equal(want1) {
			found1 = true
		}
		if c.Equal(want2) {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("clusters wrong: %v", got)
	}
}

func TestChainIsDensityConnected(t *testing.T) {
	// A long chain: each point within eps of the next, so with minPts=2 all
	// points are density connected through the chain.
	var objs []model.ObjPos
	for i := 0; i < 50; i++ {
		objs = append(objs, pos(int32(i), float64(i)*0.9, 0))
	}
	got := Cluster(objs, 1.0, 2)
	if len(got) != 1 || len(got[0]) != 50 {
		t.Fatalf("chain should form one cluster of 50, got %v", got)
	}
}

func TestChainBreaksWithHigherMinPts(t *testing.T) {
	// Same chain, minPts=3: interior points have 3 neighbours (self + 2),
	// endpoints only 2, so endpoints become border points of the single
	// cluster; the chain still holds together.
	var objs []model.ObjPos
	for i := 0; i < 10; i++ {
		objs = append(objs, pos(int32(i), float64(i)*0.9, 0))
	}
	got := Cluster(objs, 1.0, 3)
	if len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("chain with minPts=3 should still be one cluster, got %v", got)
	}
}

func TestBridgeObjectConnectsGroups(t *testing.T) {
	// Two pairs connected only through a bridge point in the middle. This is
	// the "partial connectivity" situation fully-connected convoy validation
	// cares about: removing the bridge splits the cluster.
	objs := []model.ObjPos{
		pos(1, 0, 0), pos(2, 0.4, 0),
		pos(10, 1.0, 0), // bridge
		pos(3, 1.6, 0), pos(4, 2.0, 0),
	}
	withBridge := Cluster(objs, 0.7, 2)
	if len(withBridge) != 1 || len(withBridge[0]) != 5 {
		t.Fatalf("with bridge: want one cluster of 5, got %v", withBridge)
	}
	noBridge := Cluster([]model.ObjPos{objs[0], objs[1], objs[3], objs[4]}, 0.7, 2)
	if len(noBridge) != 2 {
		t.Fatalf("without bridge: want two clusters, got %v", noBridge)
	}
}

func TestNoiseExcluded(t *testing.T) {
	objs := []model.ObjPos{
		pos(1, 0, 0), pos(2, 0.1, 0), pos(3, 0.2, 0),
		pos(99, 10, 10),
	}
	got := Cluster(objs, 0.5, 3)
	if len(got) != 1 {
		t.Fatalf("want 1 cluster, got %v", got)
	}
	if got[0].Contains(99) {
		t.Fatalf("noise point 99 should not be clustered")
	}
}

func TestMinClusterSizeRespected(t *testing.T) {
	// With minPts = m, every returned cluster must have ≥ m members.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var objs []model.ObjPos
		n := rng.Intn(80) + 1
		for i := 0; i < n; i++ {
			objs = append(objs, pos(int32(i), rng.Float64()*10, rng.Float64()*10))
		}
		m := rng.Intn(5) + 2
		for _, c := range Cluster(objs, 0.8, m) {
			if len(c) < m {
				t.Fatalf("cluster %v smaller than m=%d", c, m)
			}
		}
	}
}

// At minPts 3 a non-core point has one other point within eps at most, so
// no border point is shared and the clusters are disjoint.
func TestClustersDisjointAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var objs []model.ObjPos
		n := rng.Intn(120) + 2
		for i := 0; i < n; i++ {
			objs = append(objs, pos(int32(i), rng.Float64()*5, rng.Float64()*5))
		}
		clusters := Cluster(objs, 0.5, 3)
		seen := map[int32]bool{}
		for _, c := range clusters {
			if !c.Valid() {
				t.Fatalf("cluster not sorted/deduped: %v", c)
			}
			for _, oid := range c {
				if seen[oid] {
					t.Fatalf("object %d in two clusters", oid)
				}
				seen[oid] = true
			}
		}
	}
}

// Brute-force DBSCAN used as a reference: O(n²) neighbourhoods, same border
// semantics do not necessarily match, so we compare the partition of CORE
// points (which is unique for DBSCAN regardless of visit order) plus total
// membership counts of clusters when borders are unambiguous.
func bruteCorePartition(objs []model.ObjPos, eps float64, minPts int) map[int32]int32 {
	n := len(objs)
	epsSq := eps * eps
	nbrs := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if model.DistSq(objs[i], objs[j]) <= epsSq {
				nbrs[i] = append(nbrs[i], j)
			}
		}
	}
	core := make([]bool, n)
	for i := range nbrs {
		core[i] = len(nbrs[i]) >= minPts
	}
	// Union core points that are within eps of each other.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		for _, j := range nbrs[i] {
			if core[j] {
				union(i, j)
			}
		}
	}
	// Map each core point's OID to a canonical root OID.
	out := map[int32]int32{}
	rootOID := map[int]int32{}
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		r := find(i)
		if _, ok := rootOID[r]; !ok || objs[i].OID < rootOID[r] {
			rootOID[r] = objs[i].OID
		}
	}
	for i := 0; i < n; i++ {
		if core[i] {
			out[objs[i].OID] = rootOID[find(i)]
		}
	}
	return out
}

func TestCorePartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		var objs []model.ObjPos
		n := rng.Intn(60) + 5
		for i := 0; i < n; i++ {
			objs = append(objs, pos(int32(i), rng.Float64()*4, rng.Float64()*4))
		}
		eps := 0.3 + rng.Float64()*0.5
		minPts := rng.Intn(4) + 2
		want := bruteCorePartition(objs, eps, minPts)
		clusters := Cluster(objs, eps, minPts)
		// Every pair of core points with the same brute-force root must be in
		// the same cluster, and pairs with different roots in different ones.
		clusterOf := map[int32]int{}
		for ci, c := range clusters {
			for _, oid := range c {
				clusterOf[oid] = ci
			}
		}
		for a, ra := range want {
			ca, ok := clusterOf[a]
			if !ok {
				t.Fatalf("trial %d: core point %d not clustered", trial, a)
			}
			for b, rb := range want {
				cb := clusterOf[b]
				if (ra == rb) != (ca == cb) {
					t.Fatalf("trial %d: core grouping mismatch for %d,%d", trial, a, b)
				}
			}
		}
	}
}

func TestGridHandlesNegativeCoords(t *testing.T) {
	objs := []model.ObjPos{
		pos(1, -0.1, -0.1), pos(2, 0.1, 0.1), pos(3, -0.1, 0.1),
	}
	got := Cluster(objs, 0.5, 3)
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("cells straddling the origin should still cluster: %v", got)
	}
}

// Duplicate OIDs (two points sharing an id — discouraged but not forbidden
// by Cluster's API) must not leak into the result: an ObjSet is strictly
// increasing.
func TestClusterDedupsDuplicateOIDs(t *testing.T) {
	objs := []model.ObjPos{
		pos(5, 0, 0), pos(5, 0.1, 0), pos(2, 0, 0.1),
	}
	got := Cluster(objs, 1.0, 2)
	if len(got) != 1 {
		t.Fatalf("expected one cluster, got %v", got)
	}
	if !got[0].Valid() {
		t.Fatalf("cluster is not a valid ObjSet: %v", got[0])
	}
	if want := model.NewObjSet(2, 5); !got[0].Equal(want) {
		t.Fatalf("cluster = %v, want %v", got[0], want)
	}
}

// Cells at the int32 cell-coordinate extremes must still see their own
// column: the packed-key ranges clamp at the boundary instead of wrapping
// (a wrapped range used to skip the whole column, turning boundary points
// into noise).
func TestGridHandlesExtremeCoords(t *testing.T) {
	// With eps=1, y=±2^31∓ε lands in cell cy=MaxInt32 / MinInt32, where
	// cy±1 would wrap.
	for _, yy := range []float64{2147483647.0, -2147483648.0} {
		objs := []model.ObjPos{
			pos(1, 0, yy), pos(2, 0.1, yy), pos(3, 0.2, yy),
		}
		for _, path := range clusterPaths {
			got := path.cluster(objs, 1.0, 3)
			if len(got) != 1 || len(got[0]) != 3 {
				t.Fatalf("%s, y=%v: boundary-cell points should cluster, got %v", path.name, yy, got)
			}
		}
	}
}

// Points on both sides of the int32 cell edge: the grid saturates the cell
// coordinate instead of wrapping it, so a neighbour one cell past the edge
// is still in the block around its neighbours' cell.
func TestGridCellEdgeKeepsNeighbours(t *testing.T) {
	for _, sign := range []float64{1, -1} {
		objs := []model.ObjPos{
			pos(1, sign*2147483647.5, 0), pos(2, sign*2147483648.2, 0), pos(3, sign*2147483647.9, sign*0.1),
		}
		want := []model.ObjSet{model.NewObjSet(1, 2, 3)}
		if got := bruteCluster(objs, 1, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("sign %v: the reference itself = %v, want %v", sign, got, want)
		}
		for _, path := range clusterPaths {
			if got := path.cluster(objs, 1, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("sign %v: %s = %v, want %v", sign, path.name, got, want)
			}
		}
	}
}

// clusterPaths are the two ways Cluster answers: pairwise up to smallN
// points, a grid above. Tests that pin the output run on both.
var clusterPaths = []struct {
	name    string
	cluster func([]model.ObjPos, float64, int) []model.ObjSet
}{{"Cluster", Cluster}, {"clusterGrid", clusterGrid}}

// Cluster and clusterGrid against the reference at every size across the
// pairwise/grid boundary, exactly — same sets, same sequence. Coordinates
// sit on a half-unit lattice (distances of exactly eps, coincident points)
// placed at the origin, across the top or the bottom int32 cell edge, or
// far beyond it; OIDs repeat now and then, and the odd point is NaN, which
// has no neighbours. At eps 0 both paths take the grid.
func TestClusterPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const edge = 2147483648.0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(2*smallN + 1)
		eps := []float64{0, 0.5, 1, 1.5}[rng.Intn(4)]
		// The lattice's lower corner. Cell MaxInt32 ends and cell MinInt32
		// begins at ±edge·eps, 3 units into the window.
		origin := []float64{-3, edge*eps - 3, -edge*eps - 3, 4 * edge}[rng.Intn(4)]
		side := 2 + rng.Intn(6)
		objs := make([]model.ObjPos, n)
		for i := range objs {
			objs[i] = pos(int32(rng.Intn(3*n/2+1)), origin+float64(rng.Intn(2*side))/2, origin+float64(rng.Intn(2*side))/2)
			if rng.Intn(40) == 0 {
				objs[i].X = math.NaN()
			}
		}
		minPts := 1 + rng.Intn(5)
		want := bruteCluster(objs, eps, minPts)
		for _, path := range clusterPaths {
			if got := path.cluster(objs, eps, minPts); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (eps %v, minPts %d): %s = %v, reference %v\nobjs %v", trial, eps, minPts, path.name, got, want, objs)
			}
		}
	}
}

// A re-check's four points build nothing: what is left is the one cluster,
// sized from its seed's neighbourhood, the list holding it and the
// neighbour buffer the callback returns.
func TestClusterSmallAllocs(t *testing.T) {
	objs := []model.ObjPos{pos(3, 0, 0), pos(5, 0.5, 0), pos(8, 0.5, 0.5), pos(9, 0.2, 0.6)}
	if got := Cluster(objs, 1, 3); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("want one cluster of four, got %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { Cluster(objs, 1, 3) }); allocs > 3 {
		t.Fatalf("Cluster of four points: %v allocations, want ≤ 3", allocs)
	}
}

// The grid path's scratch is four arrays, each allocated once: an int32
// slab sized from n, the keys, the dense cells' blocks and the neighbour
// buffer sized from the largest of them; everything else is output. 171 is
// what the path allocated on this input when it still grew its neighbour
// buffer query by query.
func TestClusterGridAllocs(t *testing.T) {
	objs := cluster1000()
	if allocs := testing.AllocsPerRun(20, func() { Cluster(objs, 2.0, 3) }); allocs > 171 {
		t.Fatalf("Cluster of 1 000 points: %v allocations, want ≤ 171", allocs)
	}
}

// BenchmarkClusterSmall is the sweep smallN comes from: re-check-sized
// inputs, a few points within reach of one another, on both paths.
func BenchmarkClusterSmall(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		objs := make([]model.ObjPos, n)
		for i := range objs {
			objs[i] = pos(int32(i), rng.Float64()*2, rng.Float64()*2)
		}
		for _, path := range clusterPaths {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					path.cluster(objs, 1, 2)
				}
			})
		}
	}
}

// cluster1000 is 1 000 points spread uniformly over a 100×100 square.
func cluster1000() []model.ObjPos {
	rng := rand.New(rand.NewSource(1))
	objs := make([]model.ObjPos, 1000)
	for i := range objs {
		objs[i] = pos(int32(i), rng.Float64()*100, rng.Float64()*100)
	}
	return objs
}

func BenchmarkCluster1000(b *testing.B) {
	objs := cluster1000()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(objs, 2.0, 3)
	}
}

// bruteCluster is DBSCAN stated without a traversal, over O(n²)
// neighbourhoods: cores are grouped into connected components, components
// are taken in the input order of their first core, and each holds its
// cores plus every non-core point next to one of them.
func bruteCluster(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	near := func(i, j int) bool { return model.DistSq(objs[i], objs[j]) <= eps*eps }
	core := make([]bool, n)
	for i := range objs {
		count := 0
		for j := range objs {
			if near(i, j) {
				count++
			}
		}
		core[i] = count >= minPts
	}
	comp := make([]int, n) // core → its component's first core
	for i := range comp {
		comp[i] = i
	}
	for changed := true; changed; {
		changed = false
		for i := range objs {
			for j := range objs {
				if core[i] && core[j] && near(i, j) && comp[j] < comp[i] {
					comp[i], changed = comp[j], true
				}
			}
		}
	}
	var out []model.ObjSet
	for first := range objs {
		if !core[first] || comp[first] != first {
			continue
		}
		var oids []int32
		for i := range objs {
			for j := range objs {
				if core[j] && comp[j] == first && near(i, j) {
					oids = append(oids, objs[i].OID)
					break
				}
			}
		}
		out = append(out, model.NewObjSet(oids...))
	}
	return out
}

// TestClusteredSubsetLiesInACluster is the contract core.Grouper asks of
// DBSCAN: a set of objects that clusters as one on its own points lies
// inside some cluster of the whole snapshot, so re-clustering a candidate
// never finds a group the full clustering missed. Every subset is tried, on
// 7–10 points in distinct cells of a 4×4 unit lattice at eps 1, where a
// point has at most four neighbours and, at minPts 4 and 5, border points
// within reach of two clusters are common.
func TestClusteredSubsetLiesInACluster(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		objs := make([]model.ObjPos, 7+rng.Intn(4))
		for i, cell := range rng.Perm(16)[:len(objs)] {
			objs[i] = pos(int32(i), float64(cell%4), float64(cell/4))
		}
		const eps = 1.0
		minPts := 2 + rng.Intn(4)
		whole := Cluster(objs, eps, minPts)
		for mask := 1; mask < 1<<len(objs); mask++ {
			var sub []model.ObjPos
			for i, p := range objs {
				if mask&(1<<i) != 0 {
					sub = append(sub, p)
				}
			}
			cs := Cluster(sub, eps, minPts)
			if len(cs) != 1 || len(cs[0]) != len(sub) {
				continue
			}
			if !slices.ContainsFunc(whole, cs[0].SubsetOf) {
				t.Fatalf("trial %d (minPts %d): %v clusters on its own but lies in no cluster of %v\nobjs %v",
					trial, minPts, cs[0], whole, objs)
			}
		}
	}
}

// permutations calls f with every ordering of 0..n-1 (Heap's algorithm).
func permutations(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(n)
}

// The decisions of the expansion that both of Cluster's paths share, which
// the set-level tests above leave open: the order clusters come out in, a
// border point next to cores of two clusters (it joins both), a point first
// dismissed as noise, and duplicate OIDs.
func TestClusterOrderAndBorderRule(t *testing.T) {
	sets := func(s ...model.ObjSet) []model.ObjSet { return s }
	left := []model.ObjPos{pos(1, 0, 0), pos(2, 0.5, 0), pos(3, 1, 0)}
	right := []model.ObjPos{pos(7, 100, 0), pos(8, 100.5, 0), pos(9, 101, 0)}
	// Two cores 1.2 apart, each with a private neighbour, and two points
	// between them within eps = 1 of both cores but not of each other.
	contested := func(oidA, oidB int32) []model.ObjPos {
		return []model.ObjPos{
			pos(oidA, 0, 0), pos(oidA+1, -0.9, 0),
			pos(oidB, 1.2, 0), pos(oidB+1, 2.1, 0),
			pos(50, 0.6, 0.6), pos(51, 0.6, -0.6),
		}
	}
	for _, c := range []struct {
		name   string
		objs   []model.ObjPos
		eps    float64
		minPts int
		want   []model.ObjSet
	}{
		{"clusters follow their seeds: left first", slices.Concat(left, right), 0.6, 3,
			sets(model.NewObjSet(1, 2, 3), model.NewObjSet(7, 8, 9))},
		{"clusters follow their seeds: right first", slices.Concat(right, left), 0.6, 3,
			sets(model.NewObjSet(7, 8, 9), model.NewObjSet(1, 2, 3))},
		{"seed order, not OID order, interleaved", []model.ObjPos{right[1], left[0], right[0], left[2], left[1], right[2]}, 0.6, 3,
			sets(model.NewObjSet(7, 8, 9), model.NewObjSet(1, 2, 3))},
		// 3 is no core (two neighbours of three needed) and is scanned
		// first, so it is noise until the cluster seeded at 2 reaches it.
		{"noise later reached is a border member", []model.ObjPos{pos(3, 1, 0), pos(1, 0, 0), pos(2, 0.5, 0), pos(4, 0.2, 0.2)}, 0.6, 4,
			sets(model.NewObjSet(1, 2, 3, 4))},
		// Both cores need the contested pair to reach minPts = 4, and both
		// get it: the pair is density-reachable from each.
		{"contested borders join both clusters", contested(10, 20), 1, 4,
			sets(model.NewObjSet(10, 11, 50, 51), model.NewObjSet(20, 21, 50, 51))},
		{"contested borders: second core listed first", slices.Concat(contested(10, 20)[2:4], contested(10, 20)[:2], contested(10, 20)[4:]), 1, 4,
			sets(model.NewObjSet(20, 21, 50, 51), model.NewObjSet(10, 11, 50, 51))},
		// A chain of three cores: 50 and 51 lie between 10 and 20, 22
		// between 20 and 30, and each sits in both clusters next to it.
		{"a border point in each pair of neighbouring clusters", slices.Concat(contested(10, 20)[:3], []model.ObjPos{
			pos(22, 2.1, 0), pos(30, 3, 0), pos(31, 3.6, 0.6), pos(32, 3.6, -0.6)}, contested(10, 20)[4:]), 1, 4,
			sets(model.NewObjSet(10, 11, 50, 51), model.NewObjSet(20, 22, 50, 51), model.NewObjSet(22, 30, 31, 32))},
		// Size is judged on points, the set is compacted afterwards.
		{"duplicate OIDs compact", []model.ObjPos{pos(5, 0, 0), pos(5, 0.1, 0), pos(2, 0, 0.1), pos(9, 50, 50), pos(9, 50, 50.1), pos(9, 50.1, 50)}, 1, 3,
			sets(model.NewObjSet(2, 5), model.NewObjSet(9))},
	} {
		for _, path := range clusterPaths {
			if got := path.cluster(c.objs, c.eps, c.minPts); !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %s = %v, want %v", c.name, path.name, got, c.want)
			}
		}
		if got := bruteCluster(c.objs, c.eps, c.minPts); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: the reference itself = %v, want %v", c.name, got, c.want)
		}
	}

	// The contested fixture under every input order: the same two
	// clusters, led by whichever core is listed first, wherever the border
	// points, the private neighbours and the other core sit around it.
	fixture := contested(10, 20)
	permutations(len(fixture), func(p []int) {
		objs := make([]model.ObjPos, len(p))
		a, b := 0, 0
		for at, i := range p {
			objs[at] = fixture[i]
			switch fixture[i].OID {
			case 10:
				a = at
			case 20:
				b = at
			}
		}
		want := sets(model.NewObjSet(10, 11, 50, 51), model.NewObjSet(20, 21, 50, 51))
		if b < a {
			want[0], want[1] = want[1], want[0]
		}
		for _, path := range clusterPaths {
			if got := path.cluster(objs, 1, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("order %v: %s = %v, want %v", p, path.name, got, want)
			}
		}
	})

	// Random snapshots on a half-unit lattice (distances of exactly eps,
	// co-located points, the odd duplicate OID), compared exactly — same
	// sets, same sequence — against the reference.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		objs := make([]model.ObjPos, rng.Intn(70))
		side := 4 + rng.Intn(12)
		for i := range objs {
			objs[i] = pos(int32(rng.Intn(3*len(objs))), float64(rng.Intn(2*side))/2-3, float64(rng.Intn(2*side))/2-3)
		}
		eps := []float64{0.5, 1, 1.5}[rng.Intn(3)]
		minPts := 1 + rng.Intn(5)
		want := bruteCluster(objs, eps, minPts)
		for _, path := range clusterPaths {
			if got := path.cluster(objs, eps, minPts); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (eps %v, minPts %d): %s = %v, reference %v\nobjs %v", trial, eps, minPts, path.name, got, want, objs)
			}
		}
	}
}
