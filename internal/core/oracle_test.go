package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/dcm"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
	"repro/internal/vcoda"
)

// bruteForceFC returns the maximal FC convoys of ds straight from
// Definition 4: a set S of at least m objects is together at a tick when
// DBSCAN(eps, m) over S's own points alone puts all of S in one cluster,
// and its maximal FC convoys are the runs of such ticks at least k long.
// (S then also lies inside one (m, eps)-cluster of the whole snapshot,
// Definition 3, because a cluster is a maximal density-connected set.)
// Every object subset is tried and the result reduced to the maximal
// convoys. It shares no code with any miner beyond DBSCAN itself; ds must be
// tiny.
func bruteForceFC(ds *model.Dataset, m, k int, eps float64) []model.Convoy {
	objs := ds.Objects()
	ts, te := ds.TimeRange()
	var snaps [][]model.ObjPos
	for t := ts; t <= te; t++ {
		snaps = append(snaps, ds.Snapshot(t))
	}
	var fc []model.Convoy
	for mask := 1; mask < 1<<len(objs); mask++ {
		var set model.ObjSet
		for i, o := range objs {
			if mask&(1<<i) != 0 {
				set = append(set, o)
			}
		}
		if len(set) < m {
			continue
		}
		run := int32(0) // length of the run of together-ticks ending at t
		for t := ts; t <= te+1; t++ {
			if t <= te && together(snaps[t-ts], set, m, eps) {
				run++
				continue
			}
			if int(run) >= k {
				fc = append(fc, model.NewConvoy(set, t-run, t-1))
			}
			run = 0
		}
	}
	return minetest.ReferenceMaximal(fc)
}

// together reports whether DBSCAN over exactly set's points in snap yields
// one cluster holding all of them.
func together(snap []model.ObjPos, set model.ObjSet, m int, eps float64) bool {
	var pts []model.ObjPos
	for _, p := range snap {
		if set.Contains(p.OID) {
			pts = append(pts, p)
		}
	}
	cs := dbscan.Cluster(pts, eps, m)
	return len(cs) == 1 && len(cs[0]) == len(set)
}

// fcCase is one decoded fuzz input: the thresholds and the dataset.
type fcCase struct {
	m, k int
	eps  float64
	ds   *model.Dataset
}

// decodeFC turns fuzz bytes into a mining problem; missing bytes read as 0.
//
//	b[0]  m = 2 + b%3
//	b[1]  k = 2 + b%4
//	b[2]  odd:  the dataset is minetest.Random(b>>1, 7, 8) at minetest.Eps
//	      even: a lattice at eps = 1 + (b>>1)%2, described by
//	b[3]  objects 1 + b%10
//	b[4]  ticks 1 + b%16
//	b[5…] one byte per (tick, object): ≥ 0xE0 is absent, otherwise the
//	      object sits at (b%8, (b>>3)%4)
//
// Lattice points lie at integer coordinates, so neighbours along an axis
// are exactly eps apart: the boundary DBSCAN's "within eps" must include.
func decodeFC(data []byte) fcCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := fcCase{m: 2 + int(at(0)%3), k: 2 + int(at(1)%4)}
	if mode := at(2); mode&1 == 1 {
		c.eps, c.ds = minetest.Eps, minetest.Random(int64(mode>>1), 7, 8)
		return c
	}
	c.eps = 1 + float64(at(2)>>1%2)
	objs, ticks := 1+int(at(3)%10), 1+int(at(4)%16)
	var pts []model.Point
	for t := 0; t < ticks; t++ {
		for o := 0; o < objs; o++ {
			b := at(5 + t*objs + o)
			if b >= 0xE0 {
				continue
			}
			pts = append(pts, model.Point{OID: int32(o), T: int32(t), X: float64(b % 8), Y: float64(b >> 3 % 4)})
		}
	}
	c.ds = model.NewDataset(pts)
	return c
}

// fcSeeds is the seed corpus: the 24 random datasets the miners were first
// checked against by enumeration, at m = 2 and 3, k = 2 + seed%3.
func fcSeeds() [][]byte {
	var seeds [][]byte
	for seed := byte(0); seed < 24; seed++ {
		for _, m := range []byte{2, 3} {
			seeds = append(seeds, []byte{m - 2, seed % 3, seed<<1 | 1})
		}
	}
	return seeds
}

// minersAgree mines c with every miner over store and fails unless each
// returns exactly want, and unless k/2-hop's merge phase returns a maximal
// set: dcm.Merge keeps its final convoys unfiltered, on the argument in its
// doc comment, and the brute-force filter must find nothing to remove.
func minersAgree(t testing.TB, label string, store storage.Store, c fcCase, want []model.Convoy) {
	t.Helper()
	if ts, te := store.TimeRange(); te >= ts && int(te-ts)+1 >= c.k {
		mi := &miner{store: store, ts: ts, te: te, grouper: ConvoyGrouper(c.m, c.eps), workers: 1}
		spanning, err := mi.spanning(Config{M: c.m, K: c.k, Eps: c.eps}, &Report{})
		if err != nil {
			t.Fatal(err)
		}
		merged := dcm.Merge(spanning, c.m)
		if got, maximal := minetest.Canonical(merged), minetest.Canonical(minetest.ReferenceMaximal(merged)); got != maximal {
			t.Fatalf("%s m=%d k=%d eps=%g: dcm.Merge returned a covered convoy:\n%s\nmaximal:\n%s", label, c.m, c.k, c.eps, got, maximal)
		}
	}
	k2hop, _, err := Mine(store, Config{M: c.m, K: c.k, Eps: c.eps})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := vcoda.Mine(store, c.m, c.k, c.eps)
	if err != nil {
		t.Fatal(err)
	}
	star, _, err := vcoda.MineStar(store, c.m, c.k, c.eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name string
		cs   []model.Convoy
	}{
		{"core.Mine", k2hop},
		{"vcoda.Mine", plain},
		{"vcoda.MineStar", star},
	} {
		if !model.ConvoysEqual(got.cs, want) {
			t.Fatalf("%s m=%d k=%d eps=%g: %s = %v, Definition 4 gives %v", label, c.m, c.k, c.eps, got.name, got.cs, want)
		}
	}
}

// TestMineFCSharedBorderPoint is FuzzMineFC's first crasher (m = 4, k = 2,
// eps = 2). At tick 0 object 2, at (1,2), is no core but lies within eps of
// core 3 at (0,2), whose cluster is {2,3,5,6,7,8}, and of core 0 at (2,1),
// whose cluster is {0,1,2,4}; the two cores are √5 apart. At tick 1 every
// object sits at the origin. So both sets are FC convoys over [0,1]. A miner
// over a DBSCAN that hands a shared border point to the cluster seeded first
// returns {3,5,6,7,8} in place of the first.
func TestMineFCSharedBorderPoint(t *testing.T) {
	c := decodeFC([]byte("20201*C10C"))
	got, _, err := Mine(storage.NewMemStore(c.ds), Config{M: c.m, K: c.k, Eps: c.eps})
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Convoy{
		model.NewConvoy(model.NewObjSet(0, 1, 2, 4), 0, 1),
		model.NewConvoy(model.NewObjSet(2, 3, 5, 6, 7, 8), 0, 1),
	}
	if !model.ConvoysEqual(got, want) {
		t.Fatalf("m=%d k=%d eps=%g: core.Mine = %v, want %v", c.m, c.k, c.eps, got, want)
	}
}

// FuzzMineFC is the paper's theorem under a fuzzer: k/2-hop (core.Mine),
// VCoDA, VCoDA* and the reference miner all return exactly the maximal FC
// convoys of Definition 4, enumerated by brute force. Before fuzzing, each
// seed is also mined through a k2-LSMT and a relational store written to
// disk, which must answer as the in-memory store does.
func FuzzMineFC(f *testing.F) {
	convoys := 0
	for i, data := range fcSeeds() {
		f.Add(data)
		c := decodeFC(data)
		want := bruteForceFC(c.ds, c.m, c.k, c.eps)
		convoys += len(want)
		dir := f.TempDir()
		lsmDir, relPath := filepath.Join(dir, "lsm"), filepath.Join(dir, "rel.k2r")
		if err := lsm.WriteDataset(lsmDir, c.ds); err != nil {
			f.Fatal(err)
		}
		if err := relational.WriteDataset(relPath, c.ds, nil); err != nil {
			f.Fatal(err)
		}
		db, err := lsm.Open(lsmDir, nil)
		if err != nil {
			f.Fatal(err)
		}
		rel, err := relational.Open(relPath, nil)
		if err != nil {
			f.Fatal(err)
		}
		minersAgree(f, fmt.Sprintf("seed %d, k2-LSMT", i), db, c, want)
		minersAgree(f, fmt.Sprintf("seed %d, relational", i), rel, c, want)
		if err := db.Close(); err != nil {
			f.Fatal(err)
		}
		if err := rel.Close(); err != nil {
			f.Fatal(err)
		}
	}
	if convoys < 48 {
		f.Fatalf("only %d convoys over the seed corpus: the datasets do not exercise the miners", convoys)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFC(data)
		want := bruteForceFC(c.ds, c.m, c.k, c.eps)
		minersAgree(t, "memory", storage.NewMemStore(c.ds), c, want)
		if got := vcoda.Reference(c.ds, c.m, c.k, c.eps); !model.ConvoysEqual(got, want) {
			t.Fatalf("m=%d k=%d eps=%g: vcoda.Reference = %v, Definition 4 gives %v", c.m, c.k, c.eps, got, want)
		}
	})
}
