// Patterns: the paper's §7 extensions side by side. One herd of animals is
// tracked for 40 ticks; the three pattern classes answer different
// questions about it:
//
//   - convoys  — who stays density-connected (arbitrary shape)?
//   - flocks   — who stays inside one fixed-size disk (bounded diameter)?
//   - moving clusters — where does the herd go, allowing members to swap?
//
// The herd walks in a long line (a convoy but not a flock), a sub-group of
// three keeps tight formation (a flock), and animals join and leave the
// herd over time (visible to the moving-cluster miner only).
package main

import (
	"fmt"
	"log"
	"math/rand"

	convoy "repro"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	var pts []convoy.Point
	const ticks = 40

	// The herd: 8 animals in a line, spacing ~1.0, drifting north-east.
	// Animals 0..2 keep a tight cluster (within a radius-1 disk).
	for t := int32(0); t < ticks; t++ {
		bx, by := float64(t)*2, float64(t)*1.5
		for i := int32(0); i < 8; i++ {
			var x, y float64
			if i < 3 {
				// Tight trio at the head of the line.
				x, y = bx+float64(i)*0.7, by+rng.Float64()*0.3
			} else {
				// The rest string out behind, spaced ~1.1 apart.
				x, y = bx-float64(i-2)*1.1, by+rng.Float64()*0.4
			}
			pts = append(pts, convoy.Point{OID: i, T: t, X: x, Y: y})
		}
		// Membership churn at the tail: animal 100+t/8 tags along for ~8
		// ticks then drops off, replaced by the next.
		joiner := 100 + t/8
		pts = append(pts, convoy.Point{OID: joiner, T: t, X: bx - 6.5, Y: by + 0.2})
	}
	ds := convoy.NewDataset(pts)
	store := convoy.NewMemStore(ds)

	// Convoys: the whole line is density-connected with eps=3.5 (a line
	// needs eps ≳ 3 spacings for its points to be core under minPts=6 —
	// exactly the shape freedom convoys have and flocks lack).
	cres, err := convoy.Mine(store, convoy.Params{M: 6, K: 30, Eps: 3.5}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("convoys (m=6, k=30, eps=3.5): %d\n", len(cres.Convoys))
	for _, c := range cres.Convoys {
		fmt.Printf("  %v over [%d,%d] — the whole line counts\n", c.Objs, c.Start, c.End)
	}

	// Flocks and moving clusters share one PatternParams: flocks read M, K
	// and the disk radius R; moving clusters read M, K, the DBSCAN Eps and
	// the Jaccard threshold Theta.
	pp := convoy.PatternParams{Params: convoy.Params{M: 3, K: 30, Eps: 1.6}, R: 1.1, Theta: 0.5}

	// Flocks: only the tight trio fits one radius-1.1 disk.
	flocks, err := convoy.MineFlocks(store, pp, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flocks (m=3, k=30, r=1.1): %d\n", len(flocks))
	for _, f := range flocks {
		fmt.Printf("  %v over [%d,%d] — only the tight formation\n", f.Objs, f.Start, f.End)
	}

	// Moving clusters: the herd as a whole, tolerant of the tail churn.
	mcs, err := convoy.MineMovingClusters(store, pp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moving clusters (theta=0.5, k=30): %d\n", len(mcs))
	for _, mc := range mcs {
		fmt.Printf("  [%d,%d]: starts as %v, ends as %v — members may churn\n",
			mc.Start, mc.End(), mc.Clusters[0], mc.Clusters[len(mc.Clusters)-1])
	}
}
