// Package loadgen drives sustained HTTP traffic against a pmlsh
// serving endpoint (internal/server) and measures what users would
// see: throughput, latency percentiles, status-code mix, and — because
// it is the sole mutator and therefore knows the exact live set —
// achieved recall against an in-process brute-force oracle.
//
// Arrivals are open-loop: a dispatcher releases work at the configured
// rate regardless of how fast responses come back, so a server that
// falls behind shows up as queueing and fat tail latency instead of a
// politely throttled workload. The operation mix interleaves searches
// with inserts and deletes (and optional timed compactions), matching
// the mutable-serving story the engine is built for.
//
// The oracle id convention: the server must be serving an index built
// from Config.Data in order, so that point i has id int32(i) — which
// is what core.BuildEngine produces. Every id minted by a later insert
// is returned by the server and recorded, so the oracle stays exact.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/lscan"
	"repro/internal/metric"
	"repro/internal/metrics"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Client issues the requests (nil = a keep-alive client sized to
	// Workers).
	Client *http.Client
	// Rate is the target arrival rate in operations/second. Required.
	Rate float64
	// Duration is how long to generate load. Required.
	Duration time.Duration
	// Workers is the number of concurrent request slots (0 = 8).
	Workers int
	// K is the number of neighbors per search (0 = 10).
	K int
	// ReadFraction is the share of operations that are searches
	// (0 = 0.9; the rest split between inserts and deletes).
	ReadFraction float64
	// DeleteShare is the share of mutations that are deletes
	// (0 = 0.5). The generator stops deleting below half the initial
	// corpus so the index never empties out.
	DeleteShare float64
	// CompactEvery posts /v1/compact on this period (0 = never).
	CompactEvery time.Duration
	// CheckpointEvery is the recall/latency checkpoint period
	// (0 = Duration/4).
	CheckpointEvery time.Duration
	// OnCheckpoint, when set, observes each checkpoint as it closes.
	OnCheckpoint func(Checkpoint)
	// Data is the corpus the server's index was built from, in build
	// order (point i ↔ id i). It seeds the recall oracle and the query
	// distribution. Required.
	Data [][]float64
	// Seed drives the workload; runs are deterministic in the
	// generated operations (not in timing).
	Seed int64
	// QueryJitter is the stddev of the Gaussian perturbation applied
	// to a stored point to form a query or an inserted point (0 = 0.05).
	// Under MetricJaccard it is instead the per-token mutation
	// probability (tokens stay non-negative integers).
	QueryJitter float64
	// Metric is the distance the recall oracle scores in; it must match
	// the serving index's metric (the zero value is L2). cmd/pmlshload
	// fills it from GET /v1/info.
	Metric metric.Kind
}

func (cfg *Config) fillDefaults() error {
	if cfg.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL is required")
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be > 0, got %v", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be > 0, got %v", cfg.Duration)
	}
	if len(cfg.Data) == 0 {
		return fmt.Errorf("loadgen: Data is required (it seeds the recall oracle)")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.9
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return fmt.Errorf("loadgen: ReadFraction must be in [0,1], got %v", cfg.ReadFraction)
	}
	if cfg.DeleteShare == 0 {
		cfg.DeleteShare = 0.5
	}
	if cfg.DeleteShare < 0 || cfg.DeleteShare > 1 {
		return fmt.Errorf("loadgen: DeleteShare must be in [0,1], got %v", cfg.DeleteShare)
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = cfg.Duration / 4
	}
	if cfg.QueryJitter == 0 {
		cfg.QueryJitter = 0.05
	}
	if !cfg.Metric.Valid() {
		return fmt.Errorf("loadgen: unknown metric %d", cfg.Metric)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers * 2,
		}}
	}
	return nil
}

// Checkpoint is one periodic window of the run: recall and tail
// latency over the searches completed since the previous checkpoint.
type Checkpoint struct {
	// At is the elapsed run time when the window closed.
	At time.Duration
	// Searches is the number of recall-scored searches in the window.
	Searches int64
	// Recall is the mean recall@k against the brute-force oracle over
	// the window (NaN when the window had no searches).
	Recall float64
	// P99 is the 99th-percentile request latency over the window
	// (all routes).
	P99 time.Duration
	// Live is the oracle's live-point count when the window closed.
	Live int
}

// Report is the outcome of a Run.
type Report struct {
	// Duration is the measured wall time of the run.
	Duration time.Duration
	// Sent counts operations released by the open-loop dispatcher.
	Sent int64
	// Dropped counts operations shed because the work queue was full —
	// nonzero means the offered rate exceeded what Workers could carry.
	Dropped int64
	// Completed counts requests that received an HTTP response.
	Completed int64
	// TransportErrors counts requests that failed below HTTP.
	TransportErrors int64
	// ByRoute counts completed requests per route.
	ByRoute map[string]int64
	// ByCode counts completed requests per status code.
	ByCode map[int]int64
	// Server5xx counts responses with status >= 500.
	Server5xx int64
	// AchievedQPS is Completed / Duration.
	AchievedQPS float64
	// P50, P95 and P99 are request-latency percentiles over the whole
	// run, all routes.
	P50, P95, P99 time.Duration
	// MeanRecall is the mean recall@k over every scored search.
	MeanRecall float64
	// Searches is the number of recall-scored searches.
	Searches int64
	// Checkpoints are the periodic windows, in order. The final
	// partial window is always included.
	Checkpoints []Checkpoint
}

// oracle is the exact live set: id → vector. The load generator is the
// sole mutator of the server, so this map is ground truth (modulo the
// in-flight window of a concurrent mutation, which is at most Workers
// points).
type oracle struct {
	mu   sync.RWMutex
	live map[int32][]float64
	ids  []int32
}

func newOracle(data [][]float64) *oracle {
	o := &oracle{live: make(map[int32][]float64, len(data)), ids: make([]int32, len(data))}
	for i, p := range data {
		o.live[int32(i)] = p
		o.ids[i] = int32(i)
	}
	return o
}

func (o *oracle) len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.ids)
}

// takeRandom removes and returns a random live id, so no two workers
// delete the same point.
func (o *oracle) takeRandom(rng *rand.Rand) (int32, []float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.ids) == 0 {
		return 0, nil, false
	}
	i := rng.Intn(len(o.ids))
	id := o.ids[i]
	p := o.live[id]
	o.ids[i] = o.ids[len(o.ids)-1]
	o.ids = o.ids[:len(o.ids)-1]
	delete(o.live, id)
	return id, p, true
}

func (o *oracle) add(id int32, p []float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.live[id] = p
	o.ids = append(o.ids, id)
}

// randomBase copies a random live vector (a query/insert template).
func (o *oracle) randomBase(rng *rand.Rand) []float64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(o.ids) == 0 {
		return nil
	}
	p := o.live[o.ids[rng.Intn(len(o.ids))]]
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

// topK brute-forces the true k nearest live ids to q under m. k is
// clamped to the live count; the effective k is returned with the set.
func (o *oracle) topK(q []float64, k int, m metric.Kind) (map[int32]bool, int) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	k = min(k, len(o.ids))
	return lscan.ExactKNN(o.live, q, k, m), k
}

// tally accumulates latencies, recall and counts; one per run plus a
// resettable checkpoint window.
type tally struct {
	mu        sync.Mutex
	lats      []time.Duration
	window    []time.Duration
	recallSum float64
	recallN   int64
	winSum    float64
	winN      int64
	byRoute   map[string]int64
	byCode    map[int]int64
	transport int64
	completed int64
}

func newTally() *tally {
	return &tally{byRoute: make(map[string]int64), byCode: make(map[int]int64)}
}

func (t *tally) request(route string, code int, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.completed++
	t.byRoute[route]++
	t.byCode[code]++
	t.lats = append(t.lats, lat)
	t.window = append(t.window, lat)
}

func (t *tally) transportError() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.transport++
}

func (t *tally) recall(r float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recallSum += r
	t.recallN++
	t.winSum += r
	t.winN++
}

// closeWindow snapshots the current checkpoint window and resets it.
func (t *tally) closeWindow(at time.Duration, live int) Checkpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := Checkpoint{At: at, Searches: t.winN, P99: percentile(t.window, 0.99), Live: live}
	if t.winN > 0 {
		cp.Recall = t.winSum / float64(t.winN)
	} else {
		cp.Recall = math.NaN()
	}
	t.window = t.window[:0]
	t.winSum, t.winN = 0, 0
	return cp
}

// percentile returns the p-quantile of lats by sorting a copy
// (nearest-rank). Zero when empty.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// client is a minimal JSON client for the serving API.
type client struct {
	base string
	hc   *http.Client
}

// post sends body to route and decodes the response into out (when out
// is non-nil and the status is 200). It returns the status code.
func (c *client) post(ctx context.Context, route string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+route, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	// Drain so the keep-alive connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

type searchResult struct {
	Results []metrics.Neighbor `json:"results"`
}

type insertResult struct {
	ID int32 `json:"id"`
}

// Run generates load per cfg until cfg.Duration elapses or ctx is
// cancelled, then returns the report. The error is non-nil only for
// configuration problems — server-side failures are data, reported in
// ByCode/Server5xx/TransportErrors, not errors.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	cl := &client{base: cfg.BaseURL, hc: cfg.Client}
	orc := newOracle(cfg.Data)
	tal := newTally()
	minLive := len(cfg.Data) / 2

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	// Open-loop dispatcher: tokens are released on schedule into a
	// deep queue; a full queue sheds (and counts) the op rather than
	// slowing the arrival process down.
	work := make(chan struct{}, 4096)
	var sent, dropped int64
	var wg sync.WaitGroup

	for w := 0; w < cfg.Workers; w++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				runOp(runCtx, cfg, cl, orc, tal, rng, minLive)
			}
		}()
	}

	// Timed compactions are extra traffic on top of the arrival rate.
	var compactWG sync.WaitGroup
	if cfg.CompactEvery > 0 {
		compactWG.Add(1)
		go func() {
			defer compactWG.Done()
			tick := time.NewTicker(cfg.CompactEvery)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					start := time.Now()
					code, err := cl.post(runCtx, "/v1/compact", nil, nil)
					if err != nil {
						tal.transportError()
						continue
					}
					tal.request("/v1/compact", code, time.Since(start))
				}
			}
		}()
	}

	start := time.Now()
	var report Report
	checkpointTick := time.NewTicker(cfg.CheckpointEvery)
	defer checkpointTick.Stop()

	// Token release loop: every resolution interval, emit the number
	// of arrivals the rate schedule owes us (fractional carry-over).
	const resolution = 5 * time.Millisecond
	rateTick := time.NewTicker(resolution)
	defer rateTick.Stop()
	var owe float64
dispatch:
	for {
		select {
		case <-runCtx.Done():
			break dispatch
		case <-checkpointTick.C:
			cp := tal.closeWindow(time.Since(start), orc.len())
			report.Checkpoints = append(report.Checkpoints, cp)
			if cfg.OnCheckpoint != nil {
				cfg.OnCheckpoint(cp)
			}
		case <-rateTick.C:
			owe += cfg.Rate * resolution.Seconds()
			for ; owe >= 1; owe-- {
				sent++
				select {
				case work <- struct{}{}:
				default:
					dropped++
				}
			}
		}
	}
	close(work)
	wg.Wait()
	compactWG.Wait()

	elapsed := time.Since(start)
	if cp := tal.closeWindow(elapsed, orc.len()); cp.Searches > 0 || len(report.Checkpoints) == 0 {
		report.Checkpoints = append(report.Checkpoints, cp)
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(cp)
		}
	}

	tal.mu.Lock()
	defer tal.mu.Unlock()
	report.Duration = elapsed
	report.Sent = sent
	report.Dropped = dropped
	report.Completed = tal.completed
	report.TransportErrors = tal.transport
	report.ByRoute = tal.byRoute
	report.ByCode = tal.byCode
	for code, n := range tal.byCode {
		if code >= 500 {
			report.Server5xx += n
		}
	}
	report.AchievedQPS = float64(tal.completed) / elapsed.Seconds()
	report.P50 = percentile(tal.lats, 0.50)
	report.P95 = percentile(tal.lats, 0.95)
	report.P99 = percentile(tal.lats, 0.99)
	report.Searches = tal.recallN
	if tal.recallN > 0 {
		report.MeanRecall = tal.recallSum / float64(tal.recallN)
	} else {
		report.MeanRecall = math.NaN()
	}
	return &report, nil
}

// runOp draws and executes one operation: a recall-scored search, an
// insert of a perturbed live point, or a delete of a random live
// point.
func runOp(ctx context.Context, cfg Config, cl *client, orc *oracle, tal *tally, rng *rand.Rand, minLive int) {
	if ctx.Err() != nil {
		// The run is over; workers are just draining the queue.
		return
	}
	r := rng.Float64()
	switch {
	case r < cfg.ReadFraction:
		q := perturb(orc.randomBase(rng), rng, cfg.QueryJitter, cfg.Metric)
		if q == nil {
			return
		}
		// Ground truth is computed immediately before the request so
		// concurrent mutations can skew it by at most the in-flight
		// window.
		truth, kk := orc.topK(q, cfg.K, cfg.Metric)
		if kk == 0 {
			return
		}
		var res searchResult
		start := time.Now()
		code, err := cl.post(ctx, "/v1/search", map[string]any{"q": q, "k": kk}, &res)
		if err != nil {
			tal.transportError()
			return
		}
		tal.request("/v1/search", code, time.Since(start))
		if code == http.StatusOK {
			hits := 0
			for _, nb := range res.Results {
				if truth[nb.ID] {
					hits++
				}
			}
			tal.recall(float64(hits) / float64(kk))
		}
	case rng.Float64() < cfg.DeleteShare && orc.len() > minLive:
		id, p, ok := orc.takeRandom(rng)
		if !ok {
			return
		}
		start := time.Now()
		code, err := cl.post(ctx, "/v1/delete", map[string]any{"id": id}, nil)
		if err != nil {
			tal.transportError()
			return
		}
		tal.request("/v1/delete", code, time.Since(start))
		if code != http.StatusOK {
			// The point is still live on the server; restore the oracle.
			orc.add(id, p)
		}
	default:
		p := perturb(orc.randomBase(rng), rng, cfg.QueryJitter, cfg.Metric)
		if p == nil {
			return
		}
		var res insertResult
		start := time.Now()
		code, err := cl.post(ctx, "/v1/insert", map[string]any{"p": p}, &res)
		if err != nil {
			tal.transportError()
			return
		}
		tal.request("/v1/insert", code, time.Since(start))
		if code == http.StatusOK {
			orc.add(res.ID, p)
		}
	}
}

func perturb(p []float64, rng *rand.Rand, jitter float64, m metric.Kind) []float64 {
	if p == nil {
		return nil
	}
	if m == metric.Jaccard {
		// Tokens must stay non-negative integers for the server's
		// float64→uint64 bridge, so mutate set membership instead of
		// adding noise: each token is resampled with probability jitter
		// from a universe sized to keep overlap with the original high.
		for j := range p {
			if rng.Float64() < jitter {
				p[j] = float64(rng.Intn(1 << 20))
			}
		}
		return p
	}
	for j := range p {
		p[j] += jitter * rng.NormFloat64()
	}
	return p
}
