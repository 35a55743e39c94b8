package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// Regenerate (only when an answer is meant to change, and list every
// moved line where the change is recorded):
// go test ./internal/bench -run TestHarnessAnswersGolden -update-harness-golden
var updateHarnessGolden = flag.Bool("update-harness-golden", false,
	"rewrite testdata/harness_answers.golden from the current code")

const harnessGoldenPath = "testdata/harness_answers.golden"

// TestHarnessAnswersGolden pins the quality columns the harness prints,
// at %.6f, on one small seeded workload: every algorithm's overall ratio
// and recall at k = 10 (Table 4), the tree ablation's PM-LSH, the
// tradeoff sweep at two knob values per algorithm (Figs. 10–11) and
// Table 2's four cost columns. Timings are left out; everything else the
// harness reports is a pure function of the seeds, so a change that only
// restructures the harness must leave this file byte-equal.
func TestHarnessAnswersGolden(t *testing.T) {
	w := smallWorkload(t, 1000)
	cfg := BuildConfig{Seed: 21, QALSHMaxHashes: 40}
	var b strings.Builder
	row := func(section string, r Row) {
		fmt.Fprintf(&b, "%s %s knob=%.6g ratio=%.6f recall=%.6f\n", section, r.Algo, r.C, r.Ratio, r.Recall)
	}

	rows, err := Overview(w, nil, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		row("table4", r)
	}
	ablation, err := BuildTreeAblation(PMLSH, w.Dataset.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(ablation, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	row("ablation", r)

	rows, err = Tradeoff(w, 10, []float64{1.2, 1.8}, []int{8, 32}, []float64{0.3, 0.9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		row("tradeoff", r)
	}

	ds, err := dataset.Generate(dataset.Spec{
		Name: "cm", N: 1000, D: 48, Clusters: 6, SubspaceDim: 5, RCTarget: 2.4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CostModel(ds, 10, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "table2 pm_cc=%.6f r_cc=%.6f measured_pm=%.6f measured_r=%.6f\n",
		cmp.PMTreeCC, cmp.RTreeCC, cmp.MeasuredPM, cmp.MeasuredR)

	got := b.String()
	if *updateHarnessGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(harnessGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(harnessGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-harness-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
