package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json that compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func saveRecords(path string, recs []record) error {
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// quartiles are the three cut points Python's
// statistics.quantiles(values, n=4) gives — the method the benchmark's
// contract measures spread with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// valuesOf gathers one metric's values over the runs of one workload
// and trace mode.
func valuesOf(recs []record, workload string, traced bool, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// printSpread is the -runs summary: per metric, the median and the
// quartiles over the repeated runs.
func printSpread(w io.Writer, recs []record) {
	type key struct {
		workload string
		traced   bool
	}
	seen := map[key]bool{}
	for _, rec := range recs {
		k := key{rec.Workload, rec.Trace}
		if seen[k] {
			continue
		}
		seen[k] = true
		defs := endToEnd
		if rec.Trace {
			defs = perLayer
		}
		fmt.Fprintf(w, "%s (traced=%v): median [q1, q3] over repeated runs\n", rec.Workload, rec.Trace)
		for _, d := range defs {
			vs := valuesOf(recs, rec.Workload, rec.Trace, d.name)
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(w, "  %-30s %14.6g [%.6g, %.6g] %s  (runs=%d)\n", d.name, q2, q1, q3, d.unit, len(vs))
		}
	}
}

// verdict judges one (workload, metric) pair: b against a, under the
// metric's bound. Where either side's own spread exceeds the bound a
// move inside the bound cannot be told from noise, and the pair is
// unresolved rather than unchanged.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse := (bm - am) / math.Abs(am)
	if !lowerIsBetter {
		worse = -worse
	}
	spread := max(a3-a1, b3-b1) / math.Abs(am)
	switch {
	case worse > bound:
		return "REGRESSED", worse
	case worse < -bound:
		return "improved", worse
	case spread > bound:
		return "unresolved", worse
	}
	return "unchanged", worse
}

// runCompare is `benchmark compare A.json B.json`: one row per
// (workload, end-to-end metric) with both sides' medians and
// quartiles, judged under BENCHMARK.json's bounds. It exits 1 when a
// pair regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition whose bounds apply")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	regressed := false
	fmt.Fprintf(stdout, "%-12s %-18s %-40s %-40s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := valuesOf(a, w.Name, false, m.Name), valuesOf(b, w.Name, false, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(va, vb, m.Better == "lower", m.Bound)
			regressed = regressed || v == "REGRESSED"
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%-12s %-18s %-40s %-40s %+7.2f%% %5.1f%%  %s\n", w.Name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", am, a1, a3, m.Unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", bm, b1, b3, m.Unit),
				100*worse, 100*m.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
