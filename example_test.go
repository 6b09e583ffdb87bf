package convoy_test

// Testable godoc examples for the public API: the quickstart (Mine over an
// in-memory store), the streaming miner, and the flat-file storage engine.
// `go test` executes these, so the documented snippets can never rot.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	convoy "repro"
)

// platoon builds a small deterministic dataset: objects 1..3 travel
// together from tick 2 through tick 13, object 9 stays on its own.
func platoon() []convoy.Point {
	var points []convoy.Point
	for t := int32(0); t < 16; t++ {
		for oid := int32(1); oid <= 3; oid++ {
			x := float64(t) * 10
			if t < 2 || t > 13 {
				x += float64(oid) * 500 // scattered outside the trip
			}
			points = append(points, convoy.Point{OID: oid, T: t, X: x, Y: float64(oid)})
		}
		points = append(points, convoy.Point{OID: 9, T: t, X: float64(t) * 31, Y: 700})
	}
	return points
}

// ExampleMine mines convoys from an in-memory dataset with k/2-hop: at
// least M objects density-connected within Eps for at least K consecutive
// timestamps.
func ExampleMine() {
	ds := convoy.NewDataset(platoon())
	res, err := convoy.Mine(convoy.NewMemStore(ds), convoy.Params{M: 3, K: 8, Eps: 5}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Convoys {
		fmt.Printf("objects %v together from t=%d to t=%d\n", c.Objs, c.Start, c.End)
	}
	// Output:
	// objects {1,2,3} together from t=2 to t=13
}

// ExampleNewStreamMiner feeds snapshots to the streaming miner one
// timestamp at a time — no store, no history — and flushes at end of
// stream. Streaming results are partially connected convoys (see the
// StreamMiner docs).
func ExampleNewStreamMiner() {
	sm, err := convoy.NewStreamMiner(convoy.Params{M: 2, K: 3, Eps: 5})
	if err != nil {
		log.Fatal(err)
	}
	for t := int32(0); t < 5; t++ {
		err := sm.Observe(t, []convoy.ObjPos{
			{OID: 1, X: float64(t) * 10, Y: 0},
			{OID: 2, X: float64(t)*10 + 2, Y: 0},
			{OID: 7, X: 500 - float64(t)*10, Y: 90},
		})
		if err != nil { // timestamps must be strictly increasing
			log.Fatal(err)
		}
	}
	for _, c := range sm.Flush() {
		fmt.Printf("%v lasted %d ticks\n", c.Objs, c.Len())
	}
	// Output:
	// {1,2} lasted 5 ticks
}

// ExampleWriteFlatFile materialises a dataset as the paper's k2-File
// layout (a sorted binary flat file), loads it back, and mines it. The
// same dataset can be written once and mined many times with different
// parameters.
func ExampleWriteFlatFile() {
	dir, err := os.MkdirTemp("", "k2file")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "platoon.k2f")

	if err := convoy.WriteFlatFile(path, convoy.NewDataset(platoon())); err != nil {
		log.Fatal(err)
	}
	ds, err := convoy.LoadFlatFile(path)
	if err != nil {
		log.Fatal(err)
	}
	res, err := convoy.MineDataset(ds, convoy.Params{M: 3, K: 8, Eps: 5}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d convoy mined from %d on-disk points\n", len(res.Convoys), ds.NumPoints())
	// Output:
	// 1 convoy mined from 64 on-disk points
}
