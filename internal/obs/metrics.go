// Package obs provides zero-dependency production observability for
// the serving layer: a Prometheus-text-format metrics registry
// (counters, gauges and histograms, with or without labels) and HTTP
// middleware that feeds it while emitting structured request logs.
//
// The registry implements the subset of the Prometheus exposition
// format the serving layer needs — integer counters and gauges,
// callback gauges collected at scrape time, and cumulative-bucket
// histograms — with lock-free hot paths (one atomic add per counter
// increment, one per histogram bucket) so instrumentation never
// contends with query work.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus histogram semantics: bucket le=B counts observations
// ≤ B, plus an implicit +Inf bucket, a running sum and a count).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns an upper bound on quantile q (in [0,1]) from the
// bucket counts: the smallest bucket boundary at which the cumulative
// count reaches q·total, +Inf if it only does in the overflow bucket,
// and 0 with no observations. Coarse by construction — intended for
// self-checks and summaries, not precise percentiles.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= need {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// ExpBuckets returns n bucket bounds growing geometrically from start
// by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// vec is the shared labeled-family machinery: children keyed by their
// joined label values, created on first use, rendered in creation
// order.
type vec[T any] struct {
	mu    sync.Mutex
	make  func() *T
	index map[string]*T
	order []labeled[T]
}

type labeled[T any] struct {
	values []string
	child  *T
}

func (v *vec[T]) with(values []string) *T {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.index[key]; ok {
		return c
	}
	c := v.make()
	if v.index == nil {
		v.index = map[string]*T{}
	}
	v.index[key] = c
	v.order = append(v.order, labeled[T]{values: append([]string(nil), values...), child: c})
	return c
}

func (v *vec[T]) snapshot() []labeled[T] {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]labeled[T](nil), v.order...)
}

// CounterVec is a family of Counters keyed by label values.
type CounterVec struct {
	labels []string
	vec    vec[Counter]
}

// With returns (creating on first use) the child counter for the given
// label values, which must match the family's label names in count.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	return v.vec.with(values)
}

// GaugeVec is a family of Gauges keyed by label values.
type GaugeVec struct {
	labels []string
	vec    vec[Gauge]
}

// With returns (creating on first use) the child gauge for the given
// label values, which must match the family's label names in count.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	return v.vec.with(values)
}

// HistogramVec is a family of Histograms keyed by label values.
type HistogramVec struct {
	labels []string
	bounds []float64
	vec    vec[Histogram]
}

// With returns (creating on first use) the child histogram for the
// given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	return v.vec.with(values)
}

// family is one registered metric family, whatever its kind.
type family struct {
	name, help, typ string

	counter    *Counter
	gauge      *Gauge
	gaugeFn    func() float64
	gaugeFnVec *gaugeFuncVec
	histogram  *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
	histVec    *HistogramVec
}

// Registry holds metric families in registration order and renders
// them in the Prometheus text exposition format.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{seen: map[string]bool{}} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("obs: duplicate metric " + f.name)
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels}
	v.vec.make = func() *Counter { return &Counter{} }
	r.add(&family{name: name, help: help, typ: "counter", counterVec: v})
	return v
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels}
	v.vec.make = func() *Gauge { return &Gauge{} }
	r.add(&family{name: name, help: help, typ: "gauge", gaugeVec: v})
	return v
}

// GaugeFunc registers a gauge whose value is collected by calling fn
// at scrape time — for state owned elsewhere (live points, shard
// count) that would be wasteful to mirror on every mutation.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// gaugeFuncVec is a scrape-time gauge family over numbered parts.
type gaugeFuncVec struct {
	label string
	fn    func() []float64
}

// GaugeFuncVec registers a gauge family collected by calling fn at
// scrape time: fn returns one value per numbered part of the state it
// reads (a shard, say), and element i is rendered with the label set
// to i. One call collects the whole family, so its values come from
// one snapshot.
func (r *Registry) GaugeFuncVec(name, help, label string, fn func() []float64) {
	r.add(&family{name: name, help: help, typ: "gauge", gaugeFnVec: &gaugeFuncVec{label: label, fn: fn}})
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (an +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.add(&family{name: name, help: help, typ: "histogram", histogram: h})
	return h
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	v := &HistogramVec{labels: labels, bounds: b}
	v.vec.make = func() *Histogram { return newHistogram(b) }
	r.add(&family{name: name, help: help, typ: "histogram", histVec: v})
	return v
}

// WriteText renders every registered family in the Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.gauge.Value())
		case f.gaugeFn != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		case f.gaugeFnVec != nil:
			for i, v := range f.gaugeFnVec.fn() {
				fmt.Fprintf(bw, "%s{%s=\"%d\"} %s\n", f.name, f.gaugeFnVec.label, i, formatFloat(v))
			}
		case f.histogram != nil:
			writeHistogram(bw, f.name, "", f.histogram)
		case f.counterVec != nil:
			for _, ch := range f.counterVec.vec.snapshot() {
				fmt.Fprintf(bw, "%s{%s} %d\n", f.name,
					labelPairs(f.counterVec.labels, ch.values), ch.child.Value())
			}
		case f.gaugeVec != nil:
			for _, ch := range f.gaugeVec.vec.snapshot() {
				fmt.Fprintf(bw, "%s{%s} %d\n", f.name,
					labelPairs(f.gaugeVec.labels, ch.values), ch.child.Value())
			}
		case f.histVec != nil:
			for _, ch := range f.histVec.vec.snapshot() {
				writeHistogram(bw, f.name, labelPairs(f.histVec.labels, ch.values), ch.child)
			}
		}
	}
	return bw.Flush()
}

// Handler serves the registry as a GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// writeHistogram renders one histogram's cumulative buckets, sum and
// count. labels is a pre-rendered "k=\"v\",..." string or "".
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(labels), formatFloat(b), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.count.Load())
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// labelPairs renders label names and values as k="v",k="v".
func labelPairs(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, values[i])
	}
	return sb.String()
}

// formatFloat renders a float the way Prometheus text format expects:
// shortest round-trip representation, no exponent for small ints.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses the subset of the Prometheus text format this
// package emits, returning every sample keyed by its full series name
// including the label set exactly as rendered (labels in declaration
// order, e.g. `pmlsh_http_requests_total{route="/v1/search",code="200"}`). Tests
// and the load generator use it to assert on scraped metrics; it is
// not a general exposition-format parser.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: malformed value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
