package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/pmtree"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run times the calls into each layer's public functions
// from outside: nothing in the program under test is instrumented, so
// the end-to-end run pays nothing for it. Every workload's traced run
// walks the same stack over that workload's rows — lsh and pmtree at
// build time, one query replayed stage by stage, then the engine, the
// WAL and the server each called directly — so a per-layer number has
// the same meaning on every workload.

// churn is the length of the engine-level read-beside-write phase.
func (c runConfig) churn() time.Duration { return min(c.window/2, 5*time.Second) }

// layerSchedulePairs sizes the mutation schedule of a traced run:
// three closed-loop phases of layerOps ops (engine in memory, engine
// durable, server handler) and the open-loop churn.
func layerSchedulePairs(c runConfig) int {
	return (3*c.sz.layerOps+int(c.churn().Seconds()*mutationRate))/2 + 1
}

// medianOf3 times fn three times and returns the median, in ms.
func medianOf3(fn func() error) (float64, error) {
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// allocsPer runs fn n times and returns heap allocations and bytes per
// call, from the runtime's own counters.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func meanUS(ss []sample) float64 {
	var sum time.Duration
	for _, s := range ss {
		sum += s.lat
	}
	return us(sum) / float64(len(ss))
}

func runLayers(c runConfig, in *inputs) (*report, error) {
	r := newReport(perLayer)
	points, d := in.points, c.w.spec.D
	n := len(points)
	opts := core.SearchOptions{C: queryC, Budget: c.budget}

	// Build, split by layer: the projection (lsh), the bulk load over the
	// projected rows (pmtree), and the whole of core.Build around them.
	var projected = in.store
	projectMS, err := medianOf3(func() error {
		proj, err := lsh.NewProjection(core.DefaultM, d, buildSeed)
		if err != nil {
			return err
		}
		projected, err = proj.ProjectStore(in.store)
		return err
	})
	if err != nil {
		return nil, err
	}
	bulkMS, err := medianOf3(func() error {
		_, err := pmtree.BuildFromStore(projected, nil, pmtree.Config{NumPivots: core.DefaultPivots, PivotSeed: buildSeed + 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	var ix *core.Index
	buildMS, err := medianOf3(func() error {
		ix, err = core.Build(points, core.Config{Seed: buildSeed})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("lsh.project_store_ms", projectMS, 3)
	r.set("pmtree.bulkload_ms", bulkMS, 3)
	r.set("core.build_ms", buildMS, 3)
	r.set("core.build_other_ms", buildMS-projectMS-bulkMS, 0)

	// One query, stage by stage.
	rp, err := newReplayer(ix, points, opts)
	if err != nil {
		return nil, err
	}
	rp.run(in.fixed, false) // warm the scratch pool and the replay buffers
	rp.run(in.fixed, true)
	r.count(2*len(in.fixed), rp.failed)
	rp.report(r, n, d)
	tracePath := filepath.Join(c.scratch, "trace-"+c.w.name+".json")
	if err := rp.tr.write(tracePath); err != nil {
		return nil, err
	}
	r.note("%d spans written to %s", len(rp.tr.spans), tracePath)

	// The serving stack above the index: engine, then server.
	eng, err := core.BuildEngine(points, core.Config{Seed: buildSeed, Shards: c.w.shards})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ep, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer ep.stop()
	inproc := &httpTarget{do: handlerDo(srv.Handler()), budget: c.budget}
	if err := measureLadder(r, c, in, ix, eng, ep, inproc); err != nil {
		return nil, err
	}

	// The mutation paths: engine in memory, engine under the WAL, then
	// through the server's handler.
	mir := newMirror(points)
	mut := newMutator(engineTarget{eng}, mir, in)
	ins, del := mut.phase(mut.t, c.sz.layerOps, 0, 0)
	r.set("engine.insert_us", 1000*p50MS(ins), len(ins))
	r.set("engine.delete_us", 1000*p50MS(del), len(del))

	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(c.scratch, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	if err := eng.EnableDurability(wal.DirFS(walDir), walPolicy); err != nil {
		return nil, err
	}
	defer eng.CloseDurable()
	ins, _ = mut.phase(mut.t, c.sz.layerOps, 0, 0)
	r.set("engine.insert_durable_us", 1000*p50MS(ins), len(ins))
	if ds, ok := eng.DurabilityStats(); ok && ds.Syncs > 0 {
		r.set("wal.appends_per_sync", float64(ds.Appended)/float64(ds.Syncs), int(ds.Syncs))
	}
	ins, _ = mut.phase(inproc, c.sz.layerOps, 0, 0)
	r.set("server.insert_handler_us", 1000*p50MS(ins), len(ins))

	// Reads beside writes, over HTTP, the serve workload's traffic on
	// this workload's rows: one closed-loop reader, the open-loop mutator.
	churnOps := int(c.churn().Seconds() * mutationRate)
	hc := ep.client()
	defer hc.CloseIdleConnections()
	i0, d0, lag0 := len(mut.inserts), len(mut.deletes), len(mut.lagMS)
	mut.t = &httpTarget{do: clientDo(hc, ep.base)}
	churned := serveLoad(ep, in.fixed, mut, churnOps, 0, c.budget)
	r.count(churned.issued, churned.failed)
	ins, del = mut.inserts[i0:], mut.deletes[d0:]
	var stall float64
	for _, s := range append(slices.Clone(ins), del...) {
		stall = max(stall, ms(s.lat))
	}
	lag := slices.Clone(mut.lagMS[lag0:])
	slices.Sort(lag)
	r.set("server.search_p99_churn_ms", percentile(latencies(churned.samples), 0.99), len(churned.samples))
	r.set("server.insert_p50_ms", p50MS(ins), len(ins))
	r.set("server.delete_p50_ms", p50MS(del), len(del))
	r.set("engine.mutation_stall_max_ms", stall, len(ins)+len(del))
	r.set("loadgen.mutator_lag_p99_ms", percentile(lag, 0.99), len(lag))

	compactMS, err := medianOf3(eng.Compact)
	if err != nil {
		return nil, err
	}
	r.set("engine.compact_ms", compactMS, 3)

	r.count(mut.issued, mut.failed)
	if mut.firstErr != nil {
		r.gate("mutation schedule: %v", mut.firstErr)
	}
	mut.t = engineTarget{eng}
	if err := mut.checkLive(); err != nil {
		r.gate("%v", err)
	}
	if err := scrapeStatusCounts(r, inproc); err != nil {
		return nil, err
	}
	if err := measureWAL(r, c, in); err != nil {
		return nil, err
	}
	return r, nil
}

// ladderBlocks is how many turns each rung of measureLadder takes.
const ladderBlocks = 10

// measureLadder times the fixed queries at every height of the serving
// stack — the bare index, a one-shard engine, the workload's engine,
// the server's handler called in-process, a loopback round trip. The
// rungs take turns in blocks of queries, so that the difference
// between two rungs is not the difference between two moments of the
// host, yet each rung keeps its own index in cache for a block at a
// time (taking turns query by query makes three indexes evict each
// other and every rung twice as slow).
func measureLadder(r *report, c runConfig, in *inputs, ix *core.Index, eng *core.Engine, ep *endpoint, inproc *httpTarget) error {
	ctx := context.Background()
	opts := core.SearchOptions{C: queryC, Budget: c.budget}
	nq := len(in.fixed)
	one := eng // engine.overhead_us is defined at one shard
	if c.w.shards != 1 {
		var err error
		if one, err = core.BuildEngine(in.points, core.Config{Seed: buildSeed}); err != nil {
			return err
		}
	}
	hc := ep.client()
	defer hc.CloseIdleConnections()
	remote := &httpTarget{do: clientDo(hc, ep.base)}

	bodies := make([][]byte, nq)
	for i, q := range in.fixed {
		bodies[i] = inproc.searchRequest(q)
	}
	library := func(search func(context.Context, []float64, int, core.SearchOptions) ([]core.Result, error)) func(int) bool {
		return func(q int) bool {
			res, err := search(ctx, in.fixed[q], queryK, opts)
			return err == nil && len(res) == queryK
		}
	}
	overHTTP := func(t *httpTarget) func(int) bool {
		return func(q int) bool {
			status, _, err := t.do(http.MethodPost, "/v1/search", bodies[q])
			return err == nil && status == http.StatusOK
		}
	}
	rungs := []func(q int) bool{library(ix.Search), library(one.Search), library(eng.Search), overHTTP(inproc), overHTTP(remote)}
	lat := make([][]sample, len(rungs))
	failed := 0
	ask := func(j, q int) {
		t0 := time.Now()
		ok := rungs[j](q)
		lat[j] = append(lat[j], sample{lat: time.Since(t0)})
		if !ok {
			failed++
		}
	}
	for j := range rungs { // open the connection, fill the pools
		ask(j, 0)
		lat[j] = lat[j][:0]
	}
	block := max(nq/ladderBlocks, 1)
	for from := 0; from < nq; from += block {
		for j := range rungs {
			for q := from; q < min(from+block, nq); q++ {
				ask(j, q)
			}
		}
	}
	r.count((nq+1)*len(rungs), failed)

	indexUS, oneUS, engineUS, handlerUS, roundTripUS := meanUS(lat[0]), meanUS(lat[1]), meanUS(lat[2]), meanUS(lat[3]), meanUS(lat[4])
	r.note("ladder means (us): index %.0f, 1-shard engine %.0f, engine %.0f, handler %.0f, round trip %.0f", indexUS, oneUS, engineUS, handlerUS, roundTripUS)
	r.set("engine.overhead_us", oneUS-indexUS, nq)
	r.set("engine.search_us", engineUS, nq)
	r.set("engine.search_p99_idle_ms", percentile(latencies(lat[2]), 0.99), nq)
	r.set("server.handler_us", handlerUS, nq)
	r.set("server.overhead_us", handlerUS-engineUS, nq)
	r.set("server.transport_us", roundTripUS-handlerUS, nq)

	allocs, bytesPer := allocsPer(nq, func(i int) { rungs[0](i) })
	r.set("core.allocs_per_search", allocs, nq)
	r.set("core.bytes_per_search", bytesPer, nq)
	allocs, bytesPer = allocsPer(nq, func(i int) { rungs[3](i) })
	r.set("server.allocs_per_search", allocs, nq)
	r.set("server.bytes_per_search", bytesPer, nq)
	r.count(2*nq, 0)
	return nil
}

// scrapeStatusCounts reads the server's own request counters from
// /metrics: a benchmark run must not have produced a 4xx or a 5xx.
func scrapeStatusCounts(r *report, t *httpTarget) error {
	status, body, err := t.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("scraping /metrics: status %d, %v", status, err)
	}
	series, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	var c4, c5 float64
	for name, v := range series {
		if !strings.HasPrefix(name, "pmlsh_http_requests_total{") {
			continue
		}
		switch {
		case strings.Contains(name, `code="4`):
			c4 += v
		case strings.Contains(name, `code="5`):
			c5 += v
		}
	}
	r.set("server.http_4xx", c4, 0)
	r.set("server.http_5xx", c5, 0)
	if c4+c5 > 0 {
		r.gate("the server counted %v 4xx and %v 5xx replies", c4, c5)
	}
	return nil
}

// measureWAL times the log alone: appends of this workload's insert
// records with an fsync after every eighth, the policy the engine runs
// under, issued by hand so that append and sync are timed apart.
func measureWAL(r *report, c runConfig, in *inputs) error {
	dir, err := os.MkdirTemp(c.scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const seq = 1
	w, err := wal.CreateWriter(wal.DirFS(dir), seq, wal.SyncPolicy{EveryN: math.MaxInt32})
	if err != nil {
		return err
	}
	var appends, syncs []sample
	for i := 0; i < c.sz.layerOps; i++ {
		t0 := time.Now()
		err := w.Append(wal.Op{Kind: wal.OpInsert, ID: int32(i), Vec: in.inserts[i%len(in.inserts)]})
		appends = append(appends, sample{lat: time.Since(t0)})
		if err == nil && (i+1)%walPolicy.EveryN == 0 {
			t0 = time.Now()
			err = w.Sync()
			syncs = append(syncs, sample{lat: time.Since(t0)})
		}
		if err != nil {
			w.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := os.Stat(filepath.Join(dir, wal.SegmentName(seq)))
	if err != nil {
		return err
	}
	r.count(len(appends)+len(syncs), 0)
	r.set("wal.append_us", meanUS(appends), len(appends))
	r.set("wal.sync_ms", meanUS(syncs)/1000, len(syncs))
	r.set("wal.bytes_per_op", float64(st.Size())/float64(len(appends)), len(appends))
	return nil
}
