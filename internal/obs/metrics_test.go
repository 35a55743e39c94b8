package obs

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	g := reg.Gauge("test_gauge", "a gauge")
	reg.GaugeFunc("test_fn", "a collected gauge", func() float64 { return 2.5 })
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Dec()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, sb.String())
	}
	for series, want := range map[string]float64{
		"test_total": 4, "test_gauge": 6, "test_fn": 2.5,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	for _, want := range []string{
		"# TYPE test_total counter", "# TYPE test_gauge gauge", "# HELP test_fn a collected gauge",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestGaugeFuncVecRender(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.GaugeFuncVec("part_fill", "fill per part", "part", func() []float64 {
		calls++
		return []float64{1, 0.25, 0}
	})
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("one scrape collected the family %d times", calls)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, sb.String())
	}
	for series, want := range map[string]float64{
		`part_fill{part="0"}`: 1, `part_fill{part="1"}`: 0.25, `part_fill{part="2"}`: 0,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if !strings.Contains(sb.String(), "# TYPE part_fill gauge") {
		t.Errorf("output missing the family header:\n%s", sb.String())
	}
}

func TestCounterVecLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("req_total", "requests", "route", "code")
	v.With("/v1/search", "200").Add(5)
	v.With("/v1/search", "400").Inc()
	v.With("/v1/insert", "200").Inc()
	// Re-With must return the same child, not a fresh series.
	v.With("/v1/search", "200").Inc()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`req_total{route="/v1/search",code="200"}`]; got != 6 {
		t.Errorf("search/200 = %v, want 6\n%s", got, sb.String())
	}
	if got := samples[`req_total{route="/v1/search",code="400"}`]; got != 1 {
		t.Errorf("search/400 = %v, want 1", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5.0565) > 1e-12 {
		t.Fatalf("sum = %v", h.Sum())
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// le="0.001" counts 0.0005 AND the boundary value 0.001 (le is ≤).
	for series, want := range map[string]float64{
		`lat_seconds_bucket{le="0.001"}`: 2,
		`lat_seconds_bucket{le="0.01"}`:  3,
		`lat_seconds_bucket{le="0.1"}`:   4,
		`lat_seconds_bucket{le="+Inf"}`:  5,
		"lat_seconds_count":              5,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v\n%s", series, got, want, sb.String())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %v, want 1", q)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Errorf("p99 = %v, want 4", q)
	}
	h.Observe(100)
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 with overflow obs = %v, want +Inf", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Sum() != workers*per {
		t.Fatalf("sum = %v, want %d", h.Sum(), workers*per)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("dup", "")
	reg.Counter("dup", "")
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestMiddlewareCountsAndLabels(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "t", discardLogger())
	ok := m.Wrap("/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi"))
	}))
	bad := m.Wrap("/bad", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		if rec.Header().Get("X-Request-Id") == "" {
			t.Fatal("no request id assigned")
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/bad", nil)
	req.Header.Set("X-Request-Id", "caller-chosen")
	bad.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-chosen" {
		t.Fatalf("request id not propagated: %q", got)
	}

	if got := m.Requests.With("/ok", "200").Value(); got != 3 {
		t.Errorf("requests ok/200 = %d, want 3", got)
	}
	if got := m.Requests.With("/bad", "400").Value(); got != 1 {
		t.Errorf("requests bad/400 = %d, want 1", got)
	}
	if got := m.Errors.With("/bad", "400").Value(); got != 1 {
		t.Errorf("errors bad/400 = %d, want 1", got)
	}
	if got := m.Errors.With("/ok", "200").Value(); got != 0 {
		t.Errorf("errors ok/200 = %d, want 0", got)
	}
	if got := m.Latency.With("/ok").Count(); got != 3 {
		t.Errorf("latency observations = %d, want 3", got)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Errorf("in-flight after completion = %d", got)
	}
}

func TestMiddlewareRecoversPanic(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "t", discardLogger())
	h := m.Wrap("/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaput")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := m.Requests.With("/boom", "500").Value(); got != 1 {
		t.Fatalf("requests boom/500 = %d, want 1", got)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight leaked: %d", got)
	}
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("one_total", "").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if samples["one_total"] != 1 {
		t.Fatalf("one_total = %v", samples["one_total"])
	}
}
