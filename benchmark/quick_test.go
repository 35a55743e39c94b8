package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// quickRun runs the benchmark's own entry point at -quick sizes and
// returns its exit code and saved records.
func quickRun(t *testing.T, args ...string) (int, []record, string) {
	t.Helper()
	dir := t.TempDir()
	save := filepath.Join(dir, "runs.json")
	var out, errs bytes.Buffer
	args = append([]string{"-quick", "-seconds", "0.4", "-out", filepath.Join(dir, "out"), "-save", save}, args...)
	code := run(args, &out, &errs)
	if errs.Len() > 0 {
		t.Logf("stderr: %s", errs.String())
	}
	recs, err := loadRecords(save)
	if err != nil {
		t.Fatalf("exit %d, no saved records: %v\n%s", code, err, out.String())
	}
	return code, recs, out.String()
}

// Every workload, both runs: each metric BENCHMARK.json names is
// reported, finite and carries the declared unit; the gates pass; the
// last line of output is the result object of the contract.
func TestQuickReportsEveryNamedMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	code, recs, out := quickRun(t)
	if code != 0 {
		t.Fatalf("quick run exited %d:\n%s", code, out)
	}
	if len(recs) != 2*len(workloads) {
		t.Fatalf("%d records for %d workloads", len(recs), len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(want[false]) != len(endToEnd) || len(want[true]) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the benchmark declares %d+%d",
			len(want[false]), len(want[true]), len(endToEnd), len(perLayer))
	}
	for i, rec := range recs {
		if _, ok := workloadByName(rec.Workload); !ok || rec.Workload != sp.Workloads[i/2].Name {
			t.Errorf("record %d is of workload %q, BENCHMARK.json lists %q there", i, rec.Workload, sp.Workloads[i/2].Name)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", rec.Workload, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(rec.Metrics) != len(want[rec.Trace]) {
			t.Errorf("%s traced=%v reports %d metrics, want %d", rec.Workload, rec.Trace, len(rec.Metrics), len(want[rec.Trace]))
		}
		for name, unit := range want[rec.Trace] {
			m, ok := rec.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s traced=%v: metric %s is missing", rec.Workload, rec.Trace, name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", rec.Workload, name, m.Value)
			case m.Unit == "" || m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, name, m.Unit, unit)
			case !rec.Trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", rec.Workload, name, m.Value)
			}
		}
		if rec.Trace && rec.Metrics["trace.count_mismatches"].Value != 0 {
			t.Errorf("%s: %v replayed queries did not match", rec.Workload, rec.Metrics["trace.count_mismatches"].Value)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(last))
	}
}

// -seed drives the inputs and nothing else: the same seed gives
// byte-identical inputs and identical counts and quality; another seed
// gives other inputs.
func TestSeedDeterminesInputsAndCounts(t *testing.T) {
	_, a, _ := quickRun(t, "-workload", "knn-d128", "-seed", "5")
	_, b, _ := quickRun(t, "-workload", "knn-d128", "-seed", "5")
	_, c, _ := quickRun(t, "-workload", "knn-d128", "-seed", "6")
	if len(a) != 2 || len(b) != 2 || len(c) != 2 {
		t.Fatalf("want an untraced and a traced record per run, got %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i].Digest != b[i].Digest {
			t.Errorf("seed 5 twice: input digests %s and %s", a[i].Digest, b[i].Digest)
		}
		if a[i].Digest == c[i].Digest {
			t.Errorf("seeds 5 and 6 produced the same inputs (%s)", a[i].Digest)
		}
	}
	for _, name := range []string{"recall_at_50", "ratio"} {
		if x, y := a[0].Metrics[name].Value, b[0].Metrics[name].Value; x != y {
			t.Errorf("seed 5 twice: %s %v and %v", name, x, y)
		}
	}
	for _, name := range []string{"pmtree.dist_comps", "pmtree.emitted", "core.verified", "core.rounds", "core.budget_stop_ratio"} {
		if x, y := a[1].Metrics[name].Value, b[1].Metrics[name].Value; x != y {
			t.Errorf("seed 5 twice: %s %v and %v", name, x, y)
		}
	}
}

// The recall gate must be able to fail: with the verification budget
// cut to k the index returns the first k candidates it sees, recall
// collapses, and the command exits non-zero.
func TestRecallGateFires(t *testing.T) {
	code, recs, out := quickRun(t, "-workload", "knn-d128", "-trace", "0", "-budget", "50")
	if code == 0 || len(recs) != 1 || recs[0].Correct {
		t.Fatalf("budget=k run exited %d, correct=%v; the recall gate did not fire:\n%s", code, recs[0].Correct, out)
	}
	if !strings.Contains(out, "GATE FAILED: recall_at_50") {
		t.Errorf("output does not name the failed gate:\n%s", out)
	}
}
