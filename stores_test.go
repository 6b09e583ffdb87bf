package convoy

import (
	"path/filepath"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

// The same query against every public storage constructor must return
// identical convoys.
func TestPublicStoresAgree(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3}, {8, 9}}},
	})
	p := Params{M: 2, K: 8, Eps: minetest.Eps}
	want, err := MineDataset(ds, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Convoys) != 2 {
		t.Fatalf("scenario should have 2 convoys: %v", want.Convoys)
	}
	dir := t.TempDir()

	// Flat file: loaded whole, mined in memory.
	flat := filepath.Join(dir, "d.k2f")
	if err := WriteFlatFile(flat, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlatFile(flat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineDataset(loaded, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !model.ConvoysEqual(res.Convoys, want.Convoys) {
		t.Fatalf("loaded flatfile disagrees: %v", res.Convoys)
	}

	// B+tree table.
	table := filepath.Join(dir, "d.k2r")
	if err := WriteTable(table, ds); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTable(table)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Mine(ts, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if !model.ConvoysEqual(res.Convoys, want.Convoys) {
		t.Fatalf("table store disagrees: %v", res.Convoys)
	}

	// LSM tree.
	ldir := filepath.Join(dir, "lsm")
	if err := WriteLSM(ldir, ds); err != nil {
		t.Fatal(err)
	}
	db, err := OpenLSM(ldir)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Mine(db, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if !model.ConvoysEqual(res.Convoys, want.Convoys) {
		t.Fatalf("lsm store disagrees: %v", res.Convoys)
	}
}

// Layout independence (paper requirement 6): the same store must serve
// queries with different m, k, eps without rebuilding.
func TestStoreLayoutIndependentOfParams(t *testing.T) {
	ds := minetest.BuildRanges([]minetest.Range{
		{Start: 0, End: 19, Groups: [][]int32{{1, 2, 3, 4}}},
	})
	dir := t.TempDir()
	table := filepath.Join(dir, "d.k2r")
	if err := WriteTable(table, ds); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTable(table)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for _, p := range []Params{
		{M: 2, K: 5, Eps: minetest.Eps},
		{M: 4, K: 10, Eps: minetest.Eps},
		{M: 2, K: 18, Eps: minetest.Eps / 2},
	} {
		res, err := Mine(ts, p, nil)
		if err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		want, err := MineDataset(ds, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(res.Convoys, want.Convoys) {
			t.Fatalf("params %+v disagree: %v vs %v", p, res.Convoys, want.Convoys)
		}
	}
}
