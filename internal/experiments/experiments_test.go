package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	convoy "repro"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"compare", "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
		"fig8i", "fig8j", "fig8k", "fig8l", "table4", "table5",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d ids, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", Tiny); err == nil {
		t.Fatalf("unknown id should fail")
	}
}

func TestDatasetsYieldConvoys(t *testing.T) {
	// Every dataset must produce at least one convoy at its default
	// parameters, or the whole experiment suite is vacuous.
	for _, spec := range Datasets() {
		ds := spec.Build(Tiny)
		if ds.NumPoints() == 0 {
			t.Fatalf("%s: empty dataset", spec.Name)
		}
		k := spec.Ks(ds)[1]
		res, err := MineMem(ds, convoy.Params{M: spec.M, K: k, Eps: spec.Eps}, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(res.Convoys) == 0 {
			t.Fatalf("%s: no convoys at m=%d k=%d eps=%g", spec.Name, spec.M, k, spec.Eps)
		}
	}
}

func TestKsMonotoneAndValid(t *testing.T) {
	for _, spec := range Datasets() {
		ds := spec.Build(Tiny)
		ks := spec.Ks(ds)
		if len(ks) != 6 {
			t.Fatalf("%s: want 6 k values, got %v", spec.Name, ks)
		}
		for i, k := range ks {
			if k < 2 {
				t.Fatalf("%s: k=%d too small", spec.Name, k)
			}
			if i > 0 && k < ks[i-1] {
				t.Fatalf("%s: ks not monotone: %v", spec.Name, ks)
			}
		}
		if mid := spec.KMid(ds); mid != ks[3] {
			t.Fatalf("%s: KMid = %d, want %d", spec.Name, mid, ks[3])
		}
	}
}

func TestStoreKindsAgree(t *testing.T) {
	// The same mining run on every storage engine must return identical
	// convoys (storage is an access path, not a semantics change).
	spec := TrucksSpec()
	ds := spec.Build(Tiny)
	p := convoy.Params{M: spec.M, K: spec.Ks(ds)[1], Eps: spec.Eps}
	base, err := MineMem(ds, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []StoreKind{StoreFile, StoreRDBMS, StoreLSMT} {
		r, err := MineOn(kind, ds, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(r.Convoys) != len(base.Convoys) {
			t.Fatalf("%s: %d convoys, mem store found %d", kind, len(r.Convoys), len(base.Convoys))
		}
		for i := range r.Convoys {
			if !r.Convoys[i].Equal(base.Convoys[i]) {
				t.Fatalf("%s: convoy %d differs: %v vs %v", kind, i, r.Convoys[i], base.Convoys[i])
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "n",
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// Smoke-run a representative subset of experiments at tiny scale; the rest
// share all the same code paths.
func TestRunExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"table4", "table5", "fig7a", "fig7c", "fig8i", "fig8j", "fig8k"} {
		tab, err := Run(id, Tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		if buf.Len() == 0 {
			t.Fatalf("%s: empty render", id)
		}
	}
}

func TestTable5PruningPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := Run("table5", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row[1:]
	}
	for _, label := range []string{"Total points", "Max points read", "Max points processed", "Min pruning"} {
		if len(rows[label]) != len(tab.Columns)-1 {
			t.Fatalf("missing %s row: %v", label, tab.Rows)
		}
	}
	// Pruning counts each point once, so even the least selective
	// parameters leave a good part of every dataset unread.
	for i, cell := range rows["Min pruning"] {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil || v < 30 {
			t.Errorf("dataset %s: min pruning %q, want >= 30%%", tab.Columns[i+1], cell)
		}
	}
	// Re-reads are reported, never counted as processed points.
	for i := range tab.Columns[1:] {
		read, _ := strconv.Atoi(rows["Max points read"][i])
		distinct, _ := strconv.Atoi(rows["Max points processed"][i])
		total, _ := strconv.Atoi(rows["Total points"][i])
		if distinct == 0 || distinct > read || distinct > total {
			t.Errorf("dataset %s: %d distinct of %d read, %d total", tab.Columns[i+1], distinct, read, total)
		}
	}
}
