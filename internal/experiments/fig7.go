package experiments

import (
	"fmt"

	convoy "repro"
)

func init() {
	register("fig7a", func(s Scale) (Table, error) { return gainVsK(TrucksSpec(), "fig7a", s) })
	register("fig7b", func(s Scale) (Table, error) { return gainVsK(TDriveSpec(), "fig7b", s) })
	register("fig7c", fig7c)
	register("fig7d", func(s Scale) (Table, error) { return gainOverSPARE("fig7d", "single machine", s, spareLocal) })
	register("fig7e", func(s Scale) (Table, error) { return gainOverSPARE("fig7e", "YARN cluster (simulated)", s, spareYarn) })
	register("fig7f", func(s Scale) (Table, error) { return gainOverSPARE("fig7f", "local, NUMA core counts", s, spareNuma) })
	register("fig7g", fig7g)
	register("fig7h", func(s Scale) (Table, error) { return effectOfK(TrucksSpec(), "fig7h", s, true) })
}

// gainVsK reproduces Fig 7a/7b: the speedup of k2-RDBMS and k2-LSMT over
// VCoDA* as k varies. VCoDA* runs from the flat file (its natural layout,
// as in the paper's setup); the k2 variants run from their indexed stores.
func gainVsK(spec DatasetSpec, id string, s Scale) (Table, error) {
	ds := spec.Build(s)
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("Performance gain over VCoDA* (%s)", spec.Name),
		Columns: []string{"k", "vcoda*", "k2-RDBMS", "gain", "k2-LSMT", "gain"},
		Notes:   "paper: gains up to 8x (Trucks) / 260x (T-Drive), growing with data size",
	}
	p := convoy.Params{M: spec.M, Eps: spec.Eps}
	for _, k := range spec.Ks(ds) {
		p.K = k
		base, err := MineOn(StoreFile, ds, p, &convoy.Options{Algorithm: convoy.VCoDAStar})
		if err != nil {
			return t, err
		}
		rdbms, err := MineOn(StoreRDBMS, ds, p, nil)
		if err != nil {
			return t, err
		}
		lsmt, err := MineOn(StoreLSMT, ds, p, nil)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(k),
			secs(base.Duration),
			secs(rdbms.Duration), gain(base.Duration, rdbms.Duration),
			secs(lsmt.Duration), gain(base.Duration, lsmt.Duration),
		})
	}
	return t, nil
}

// fig7c compares k2-RDBMS and k2-LSMT on the largest dataset (Brinkhoff).
func fig7c(s Scale) (Table, error) {
	spec := BrinkhoffSpec()
	ds := spec.Build(s)
	t := Table{
		ID:      "fig7c",
		Title:   "k2-RDBMS vs k2-LSMT (Brinkhoff)",
		Columns: []string{"k", "k2-RDBMS", "k2-LSMT"},
		Notes:   "paper: k2-LSMT wins on the largest dataset",
	}
	p := convoy.Params{M: spec.M, Eps: spec.Eps}
	for _, k := range spec.Ks(ds) {
		p.K = k
		rdbms, err := MineOn(StoreRDBMS, ds, p, nil)
		if err != nil {
			return t, err
		}
		lsmt, err := MineOn(StoreLSMT, ds, p, nil)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{itoa(k), secs(rdbms.Duration), secs(lsmt.Duration)})
	}
	return t, nil
}

// spare run shapes for figs 7d/7e/7f.
type spareRun struct {
	label string
	cores []int
	opts  func(cores int) *convoy.Options
	note  string // appended to the table's notes
}

var spareLocal = spareRun{
	label: "cores",
	cores: []int{1, 2, 4, 8},
	opts: func(c int) *convoy.Options {
		return &convoy.Options{Algorithm: convoy.SPARE, Workers: c}
	},
}

var spareYarn = spareRun{
	label: "cores",
	cores: []int{2, 4, 8, 16},
	opts: func(c int) *convoy.Options {
		nodes := 2
		if c >= 8 {
			nodes = 4
		}
		return &convoy.Options{Algorithm: convoy.SPARE, Workers: c / nodes, Nodes: nodes}
	},
}

// spareNuma runs the single-machine setup at the core counts of the
// paper's NUMA machine: nothing models NUMA memory effects.
var spareNuma = spareRun{
	label: "cores",
	cores: []int{8, 16, 24, 32},
	opts: func(c int) *convoy.Options {
		return &convoy.Options{Algorithm: convoy.SPARE, Workers: c}
	},
	note: "; SPARE runs the single-machine setup with this many workers (no NUMA effects are modelled)",
}

// gainOverSPARE reproduces Figs 7d/e/f: sequential k/2-hop (one core, in
// memory) against SPARE running with growing parallelism, per dataset.
func gainOverSPARE(id, setup string, s Scale, run spareRun) (Table, error) {
	t := Table{
		ID:      id,
		Title:   "k/2-hop gain over SPARE — " + setup,
		Columns: []string{run.label, "Trucks", "T-Drive", "Brinkhoff"},
		Notes:   "gain = SPARE time / k2-hop(single core) time; paper: up to 43000x" + run.note,
	}
	type base struct {
		spec DatasetSpec
		k2   *MineResult
		p    convoy.Params
	}
	var bases []base
	for _, spec := range Datasets() {
		ds := spec.Build(s)
		p := convoy.Params{M: spec.M, K: spec.KMid(ds), Eps: spec.Eps}
		k2, err := MineMem(ds, p, nil)
		if err != nil {
			return t, err
		}
		bases = append(bases, base{spec: spec, k2: k2, p: p})
	}
	for _, cores := range run.cores {
		row := []string{itoa(cores)}
		for _, b := range bases {
			ds := b.spec.Build(s)
			sp, err := MineMem(ds, b.p, run.opts(cores))
			if err != nil {
				return t, err
			}
			row = append(row, gain(sp.Duration, b.k2.Duration))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig7g reproduces the DCM comparison: k/2-hop (single core) against DCM on
// a simulated YARN cluster with 1..4 nodes.
func fig7g(s Scale) (Table, error) {
	t := Table{
		ID:      "fig7g",
		Title:   "k/2-hop gain over DCM on YARN (simulated)",
		Columns: []string{"nodes", "Trucks", "T-Drive", "Brinkhoff"},
		Notes:   "gain = DCM time / k2-hop(single core) time; paper: up to 140x",
	}
	type base struct {
		spec DatasetSpec
		k2   *MineResult
		p    convoy.Params
	}
	var bases []base
	for _, spec := range Datasets() {
		ds := spec.Build(s)
		p := convoy.Params{M: spec.M, K: spec.KMid(ds), Eps: spec.Eps}
		k2, err := MineMem(ds, p, nil)
		if err != nil {
			return t, err
		}
		bases = append(bases, base{spec: spec, k2: k2, p: p})
	}
	for _, nodes := range []int{1, 2, 3, 4} {
		row := []string{itoa(nodes)}
		for _, b := range bases {
			ds := b.spec.Build(s)
			dcmRes, err := MineMem(ds, b.p, &convoy.Options{
				Algorithm: convoy.DCM, Workers: 4, Nodes: nodes,
			})
			if err != nil {
				return t, err
			}
			row = append(row, gain(dcmRes.Duration, b.k2.Duration))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
