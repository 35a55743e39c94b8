// Command benchmark is the repository's benchmark: it generates its
// own inputs from -seed, drives the four workloads of BENCHMARK.json
// through the system's public entry points, checks every answer
// against brute force, and prints every metric by name with its unit.
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment passed in, so tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four)")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs: dataset, queries and mutation schedule")
		seconds = fs.Float64("seconds", 20, "length of the measured window in seconds")
		trace   = fs.String("trace", "both", "0 = the untraced end-to-end run, 1 = the traced per-layer run, both = one after the other")
		runs    = fs.Int("runs", 1, "repeat each run this many times and report median and quartiles per metric")
		save    = fs.String("save", "", "write every run's result to this JSON file, for `benchmark compare`")
		quick   = fs.Bool("quick", false, "smoke-test sizes: n/10 points, 50 scored queries")
		budget  = fs.Int("budget", 0, "override the βn+k verification budget (WithBudget); the self-test of the recall gate")
		scratch = fs.String("out", "benchmark/out", "directory for trace files and temporary WAL directories")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "usage: benchmark [flags] | benchmark compare A.json B.json")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "-trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	// Two threads is the cap: the reference host has two cores, and a
	// fixed value keeps runs on larger hosts comparable with it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	var records []record
	ok := true
	for _, w := range todo {
		if *quick { // a tenth of the points; one loose recall floor, the soak's
			w.spec.N /= 10
			w.recallFloor = 0.80
		}
		c := runConfig{
			w: w, seed: *seed, sz: sz, budget: *budget, scratch: *scratch,
			window: time.Duration(*seconds * float64(time.Second)),
		}
		for _, traced := range traces {
			for i := 0; i < *runs; i++ {
				rec, err := runOne(c, traced, stdout)
				if err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
					return 1
				}
				ok = ok && rec.Correct
				records = append(records, rec)
			}
		}
	}
	if *runs > 1 {
		printSpread(stdout, records)
	}
	if *save != "" {
		if err := saveRecords(*save, records); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	// The last line of standard output is the last run's result.
	if err := writeJSONLine(stdout, records[len(records)-1].result); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne generates the inputs of one run, executes it and prints its
// table.
func runOne(c runConfig, traced bool, stdout io.Writer) (record, error) {
	in, err := generate(c.w, c.seed, c.sz, c.schedulePairs(traced))
	if err != nil {
		return record{}, err
	}
	kind := "end-to-end, tracing off"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(stdout, "%s (%s): n=%d d=%d seed=%d GOMAXPROCS=%d inputs sha256:%s\n",
		c.w.name, kind, len(in.points), c.w.spec.D, c.seed, runtime.GOMAXPROCS(0), in.digest[:16])
	var rep *report
	if traced {
		rep, err = runLayers(c, in)
	} else {
		rep, err = runEndToEnd(c, in)
	}
	if err != nil {
		return record{}, err
	}
	res := rep.finish()
	rep.print(stdout, res)
	return record{
		Workload: c.w.name, Seed: c.seed, Trace: traced, Digest: in.digest,
		GOMAXPROCS: runtime.GOMAXPROCS(0), result: res,
	}, nil
}
