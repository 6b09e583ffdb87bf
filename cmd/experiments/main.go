// Command experiments regenerates the paper's evaluation tables and
// figures (as text tables; -list prints the index).
//
// Usage:
//
//	experiments -list
//	experiments -exp fig7a -scale small
//	experiments -all -scale tiny
//	experiments -compare -dataset T-Drive -algos k2hop,vcoda,spare -workers 4
//
// The -compare mode is the parallel multi-algorithm runner: it mines one
// dataset with every requested algorithm concurrently on a bounded worker
// pool and renders a side-by-side comparison table.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig7a..fig8l, table4, table5, compare)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		scale   = flag.String("scale", "tiny", "scale: tiny | small | mid")
		compare = flag.Bool("compare", false, "run the parallel multi-algorithm comparison")
		dataset = flag.String("dataset", "Trucks", "dataset for -compare: Trucks | T-Drive | Brinkhoff")
		algos   = flag.String("algos", "", "comma-separated algorithms for -compare (default: all)")
		workers = flag.Int("workers", 0, "worker pool size for -compare (0 = one per core)")
	)
	flag.Parse()
	// Exactly one mode may be requested; "-exp compare" is the compare mode
	// spelled through -exp, so it does not conflict with -compare itself.
	modes := 0
	for _, on := range []bool{*list, *all, *compare || *exp == "compare", *exp != "" && *exp != "compare"} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "experiments: -list, -all, -compare and -exp are mutually exclusive; pick one mode")
		os.Exit(2)
	}
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *compare, *exp == "compare":
		// "-exp compare" honours the -dataset/-algos/-workers flags too;
		// the registry entry (used by -all and the benchmarks) runs the
		// default Trucks × all-algorithms comparison.
		as, err := experiments.ParseAlgorithms(*algos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		t, err := experiments.Compare(experiments.Scale(*scale), *dataset, as, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
	case *all:
		if err := experiments.RunAll(experiments.Scale(*scale), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	case *exp != "":
		t, err := experiments.Run(*exp, experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
