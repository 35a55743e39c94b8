// Command datagen generates the synthetic stand-in datasets and reports
// their Table 3 statistics (n, d, HV, RC, LID), optionally exporting
// the points for external tools.
//
// Usage:
//
//	datagen -dataset Cifar -scale 0.02          # stats only
//	datagen -dataset all -scale 0.01            # stats for all seven
//	datagen -dataset Audio -out audio.f64       # raw little-endian dump
//
// The export format is a flat stream of float64 values (little-endian):
// n rows of d values, preceded by two int64 headers n and d.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/dataset"
)

func main() {
	var (
		name  = flag.String("dataset", "all", "dataset name (Audio|Deep|NUS|MNIST|GIST|Cifar|Trevi|all)")
		scale = flag.Float64("scale", 0.02, "cardinality scale factor")
		maxN  = flag.Int("maxn", 20000, "cap on points per dataset (0 = no cap)")
		out   = flag.String("out", "", "write raw float64 dump to this file (single dataset only)")
		seed  = flag.Int64("seed", 1, "statistics sampling seed")
	)
	flag.Parse()

	if err := run(*name, *scale, *maxN, *out, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, scale float64, maxN int, out string, seed int64) error {
	var specs []dataset.Spec
	if name == "all" {
		if out != "" {
			return fmt.Errorf("-out requires a single -dataset")
		}
		all, err := dataset.PaperSpecs(scale, maxN)
		if err != nil {
			return err
		}
		specs = all
	} else {
		spec, err := dataset.SpecByName(name, scale, maxN)
		if err != nil {
			return err
		}
		specs = []dataset.Spec{spec}
	}

	var names []string
	var stats []dataset.Stats
	for _, spec := range specs {
		ds, err := dataset.Generate(spec)
		if err != nil {
			return err
		}
		st, err := bench.DatasetStats(ds, seed)
		if err != nil {
			return err
		}
		names = append(names, spec.Name)
		stats = append(stats, st)
		if out != "" {
			if err := dataset.WriteDump(out, ds.Points); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s (n=%d d=%d)\n", out, st.N, st.D)
		}
	}
	bench.PrintDatasetStats(os.Stdout, names, stats)
	return nil
}
