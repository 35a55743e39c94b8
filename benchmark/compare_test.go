package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must be Python's statistics.quantiles(values, n=4), the
// measure the benchmark's bounds are defined against.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 120, 80, 110, 90}
	for _, tc := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, "unchanged"},
		{"slower", steady, []float64{110, 111, 109, 110, 110}, true, "REGRESSED"},
		{"faster", steady, []float64{90, 91, 89, 90, 90}, true, "improved"},
		{"more throughput", steady, []float64{110, 111, 109, 110, 110}, false, "improved"},
		{"noise wider than the bound", noisy, noisy, true, "unresolved"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.lowerIsBetter, 0.05); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	rec := func(v float64) record {
		return record{Workload: "knn-d128", result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"query_p50_ms": {Value: v, Unit: "ms"}}}}
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := saveRecords(a, []record{rec(2.0), rec(2.01), rec(1.99)}); err != nil {
		t.Fatal(err)
	}
	if err := saveRecords(b, []record{rec(3.0), rec(3.01), rec(2.99)}); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"compare", "-spec", "../BENCHMARK.json", a, a}, &out, &errs); code != 0 {
		t.Fatalf("comparing a file with itself exited %d: %s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("self-comparison does not say unchanged:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-spec", "../BENCHMARK.json", a, b}, &out, &errs); code != 1 {
		t.Fatalf("a 50%% slowdown exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("slowdown not reported:\n%s", out.String())
	}
}
