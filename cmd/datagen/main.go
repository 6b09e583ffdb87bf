// Command datagen generates a synthetic trajectory dataset and materialises
// it under one of the storage engines.
//
// Usage:
//
//	datagen -data brinkhoff -scale small -format flat -out /tmp/brinkhoff.k2f
//	datagen -data trucks -format lsmt -out /tmp/trucksdb
//	datagen -data tdrive -format rdbms -out /tmp/tdrive.k2r
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/storage/flatfile"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
)

func main() {
	var (
		data   = flag.String("data", "trucks", "dataset: trucks | tdrive | brinkhoff")
		scale  = flag.String("scale", "small", "scale: tiny | small | mid")
		format = flag.String("format", "flat", "output format: flat | rdbms | lsmt | csv")
		out    = flag.String("out", "", "output path (file, or directory for lsmt)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}
	if err := run(*data, *scale, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(data, scale, format, out string) error {
	var spec experiments.DatasetSpec
	switch data {
	case "trucks":
		spec = experiments.TrucksSpec()
	case "tdrive":
		spec = experiments.TDriveSpec()
	case "brinkhoff":
		spec = experiments.BrinkhoffSpec()
	default:
		return fmt.Errorf("unknown dataset %q", data)
	}
	ds := spec.Build(experiments.Scale(scale))
	st := datagen.Describe(ds)
	fmt.Printf("generated %s/%s: %d points, %d objects, %d timestamps, extent %.0fx%.0f\n",
		data, scale, st.Points, st.Objects, st.Timestamps, st.Width, st.Height)

	switch format {
	case "flat":
		if err := flatfile.WriteDataset(out, ds); err != nil {
			return err
		}
	case "rdbms":
		if err := relational.WriteDataset(out, ds, nil); err != nil {
			return err
		}
	case "lsmt":
		if err := lsm.WriteDataset(out, ds); err != nil {
			return err
		}
	case "csv":
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := model.WriteCSV(f, ds); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	fmt.Printf("wrote %s (%s)\n", out, format)
	return nil
}
