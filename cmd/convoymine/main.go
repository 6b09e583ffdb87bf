// Command convoymine mines convoy patterns from a dataset with a chosen
// algorithm and storage engine, printing the convoys and run statistics.
//
// Usage:
//
//	convoymine -data trucks -algo k2hop -store rdbms -m 3 -k 40 -eps 40
//	convoymine -data tdrive -algo vcoda* -scale small -v
//	convoymine -file path/to/data.k2f -algo k2hop -m 3 -k 100 -eps 50
//
// With -file the dataset is read from a flat file written by the datagen
// tool; otherwise one of the built-in generators is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	convoy "repro"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/storage/flatfile"
)

func main() {
	var (
		data    = flag.String("data", "trucks", "dataset: trucks | tdrive | brinkhoff")
		file    = flag.String("file", "", "read dataset from a flat file instead of generating")
		scale   = flag.String("scale", "tiny", "dataset scale: tiny | small | mid")
		algo    = flag.String("algo", "k2hop", "algorithm: k2hop | vcoda | vcoda* | pccd | cuts | dcm | spare")
		store   = flag.String("store", "mem", "storage engine: mem | file | rdbms | lsmt")
		m       = flag.Int("m", 3, "minimum convoy size")
		k       = flag.Int("k", 0, "minimum convoy length (0 = dataset default)")
		eps     = flag.Float64("eps", 0, "density radius (0 = dataset default)")
		workers = flag.Int("workers", 0, "worker pool size: k/2-hop phases and dcm/spare task slots (0 = one per core)")
		nodes   = flag.Int("nodes", 1, "simulated nodes for dcm/spare")
		verbose = flag.Bool("v", false, "print every convoy")
	)
	flag.Parse()
	if *workers == 0 {
		// Resolve the per-core default here: the experiments runners pin an
		// unset Workers to 1 (sequential paper setups), so the CLI states
		// its intent explicitly.
		*workers = runtime.GOMAXPROCS(0)
	}
	if err := run(*data, *file, *scale, *algo, *store, *m, *k, *eps, *workers, *nodes, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "convoymine:", err)
		os.Exit(1)
	}
}

func run(data, file, scale, algo, store string, m, k int, eps float64, workers, nodes int, verbose bool) error {
	var (
		ds   *model.Dataset
		spec experiments.DatasetSpec
	)
	switch {
	case file != "":
		var err error
		ds, err = loadFile(file)
		if err != nil {
			return err
		}
		spec = experiments.TrucksSpec() // defaults only used when k/eps are 0
	case data == "trucks":
		spec = experiments.TrucksSpec()
	case data == "tdrive":
		spec = experiments.TDriveSpec()
	case data == "brinkhoff":
		spec = experiments.BrinkhoffSpec()
	default:
		return fmt.Errorf("unknown dataset %q", data)
	}
	if ds == nil {
		ds = spec.Build(experiments.Scale(scale))
	}
	if eps == 0 {
		eps = spec.Eps
	}
	if k == 0 {
		k = spec.KMid(ds)
	}
	params := convoy.Params{M: m, K: k, Eps: eps}
	opts := &convoy.Options{Algorithm: convoy.Algorithm(algo), Workers: workers, Nodes: nodes}

	ts, te := ds.TimeRange()
	fmt.Printf("dataset: %d points, %d objects, t=[%d,%d]\n",
		ds.NumPoints(), len(ds.Objects()), ts, te)
	fmt.Printf("mining: algo=%s store=%s m=%d k=%d eps=%g\n", algo, store, m, k, eps)

	var res *experiments.MineResult
	var err error
	if store == "mem" {
		res, err = experiments.MineMem(ds, params, opts)
	} else {
		kind := map[string]experiments.StoreKind{
			"file": experiments.StoreFile, "rdbms": experiments.StoreRDBMS, "lsmt": experiments.StoreLSMT,
		}[store]
		if kind == "" {
			return fmt.Errorf("unknown store %q", store)
		}
		res, err = experiments.MineOn(kind, ds, params, opts)
	}
	if err != nil {
		return err
	}

	fmt.Printf("found %d convoys in %s (%d points read, %.1f%% of dataset)\n",
		len(res.Convoys), res.Duration, res.Points,
		100*float64(res.Points)/float64(ds.NumPoints()))
	if res.Report != nil {
		r := res.Report
		fmt.Printf("phases: benchmark=%s candidates=%s hwmt=%s merge=%s extR=%s extL=%s validate=%s\n",
			r.BenchmarkTime, r.CandidateTime, r.HWMTTime, r.MergeTime,
			r.ExtendRight, r.ExtendLeft, r.ValidateTime)
		fmt.Printf("pool: workers=%d\n", r.Workers)
	}
	if verbose {
		for _, c := range res.Convoys {
			fmt.Printf("  %d objects %v over [%d,%d] (%d ticks)\n",
				c.Size(), c.Objs, c.Start, c.End, c.Len())
		}
	}
	return nil
}

// loadFile reads a dataset from a flat file or, when the path ends in
// .csv, from CSV in the paper's <oid, x, y, t> column order.
func loadFile(path string) (*model.Dataset, error) {
	if strings.HasSuffix(path, ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pts, err := model.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		return model.NewDataset(pts), nil
	}
	return flatfile.Load(path)
}
