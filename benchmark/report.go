package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric and fixes its unit. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"qps", "1/s"},
	{"cpu_ms_per_query", "ms"},
	{"recall_at_50", "fraction"},
	{"ratio", "x"},
	{"index_mem_ratio", "x"},
}

// perLayer is the bill of the traced run, named <layer>.<metric>.
var perLayer = []metricDef{
	{"lsh.project_store_ms", "ms"},
	{"lsh.project_us", "us"},
	{"pmtree.bulkload_ms", "ms"},
	{"pmtree.enumerate_us", "us"},
	{"pmtree.dist_comps", "count"},
	{"pmtree.emitted", "count"},
	{"pmtree.prune_ratio", "fraction"},
	{"pmtree.emit_use_ratio", "fraction"},
	{"core.search_us", "us"},
	{"core.order_us", "us"},
	{"core.rounds", "count"},
	{"core.verified", "count"},
	{"core.budget_stop_ratio", "fraction"},
	{"core.allocs_per_search", "count"},
	{"core.bytes_per_search", "B"},
	{"core.build_ms", "ms"},
	{"core.build_other_ms", "ms"},
	{"vec.verify_us", "us"},
	{"vec.verify_ns_per_cand", "ns"},
	{"vec.verify_bytes", "B"},
	{"engine.search_us", "us"},
	{"engine.overhead_us", "us"},
	{"engine.insert_us", "us"},
	{"engine.delete_us", "us"},
	{"engine.insert_durable_us", "us"},
	{"engine.compact_ms", "ms"},
	{"engine.mutation_stall_max_ms", "ms"},
	{"engine.search_p99_idle_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.sync_ms", "ms"},
	{"wal.bytes_per_op", "B"},
	{"wal.appends_per_sync", "count"},
	{"server.handler_us", "us"},
	{"server.overhead_us", "us"},
	{"server.transport_us", "us"},
	{"server.allocs_per_search", "count"},
	{"server.bytes_per_search", "B"},
	{"server.insert_handler_us", "us"},
	{"server.search_p99_churn_ms", "ms"},
	{"server.insert_p50_ms", "ms"},
	{"server.delete_p50_ms", "ms"},
	{"server.http_4xx", "count"},
	{"server.http_5xx", "count"},
	{"loadgen.mutator_lag_p99_ms", "ms"},
	{"trace.replay_ratio", "x"},
	{"trace.count_mismatches", "count"},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result plus what identifies the run; -save files hold a
// list of them for `compare`.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Digest     string `json:"digest"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	result
}

// report collects one run's metrics in the order they were measured.
type report struct {
	defs      []metricDef
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string // failed correctness gates
	notes     []string // context printed under the table
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric; n is the number of samples behind it (0 when
// the value is not a statistic of samples).
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// gate records a failed correctness check.
func (r *report) gate(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note records a line of context for the printed table.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted/failed tally.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// finish checks that every declared metric was reported as a finite
// number and builds the result.
func (r *report) finish() result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		switch {
		case !ok:
			r.gate("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.gate("metric %s is not finite (%v)", d.name, v)
		default:
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if r.failed > 0 {
		r.gate("%d of %d operations failed", r.failed, r.attempted)
	}
	if r.attempted == 0 {
		r.gate("no operation was attempted")
	}
	res.Correct = len(r.problems) == 0
	return res
}

// print writes the human-readable table: every metric by name, with
// its unit and the number of samples behind it.
func (r *report) print(w io.Writer, res result) {
	for _, d := range r.defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-30s %14.6g %s", d.name, m.Value, m.Unit)
		if n := r.samples[d.name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", p)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
