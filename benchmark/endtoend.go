package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	pmlsh "repro"
	"repro/internal/metrics"
)

// runConfig is what one run is asked to do.
type runConfig struct {
	w       workload
	seed    int64
	window  time.Duration // measured window
	sz      sizes
	budget  int    // verification budget override; 0 = the derived βn+k
	scratch string // directory for WAL files and traces
}

// schedulePairs is the number of insert/delete pairs the run's
// mutation schedule needs.
func (c runConfig) schedulePairs(traced bool) int {
	switch {
	case traced:
		return layerSchedulePairs(c)
	case c.w.drive == driveServe:
		return int((c.warmup()+c.window).Seconds()*mutationRate)/2 + 1
	}
	return 0 // the library workloads are read-only
}

// warmup is the untimed part of every load loop: caches fill, pools
// and connections are created, the heap reaches its working size.
func (c runConfig) warmup() time.Duration { return min(c.window/4, 2*time.Second) }

// system is a set-up target plus how to take it down again.
type system struct {
	t     target
	lib   *libTarget // the library workloads' index, for SearchBatch
	sv    *served    // the serve workload's service
	close func() error
}

// setupOnce takes the inputs from memory to a system ready to answer:
// pmlsh.Build for the library workloads; build + WAL + listener up to
// the first 200 on /readyz for the serve workload.
func setupOnce(c runConfig, in *inputs) (*system, error) {
	if c.w.drive == driveServe {
		sv, err := startServed(in.points, c.w.shards, c.scratch)
		if err != nil {
			return nil, err
		}
		hc := sv.client()
		return &system{
			t:  &httpTarget{do: clientDo(hc, sv.base), budget: c.budget},
			sv: sv,
			close: func() error {
				hc.CloseIdleConnections()
				return sv.stop()
			},
		}, nil
	}
	ix, err := pmlsh.Build(in.points, pmlsh.Config{Seed: buildSeed, Shards: c.w.shards})
	if err != nil {
		return nil, err
	}
	lib := newLibTarget(ix, c.budget)
	return &system{t: lib, lib: lib, close: func() error { return nil }}, nil
}

// setupRuns is how many times set-up is repeated; setup_s is their
// median, so one slow build does not decide the number.
const setupRuns = 7

// measureSetup sets the system up setupRuns times and keeps the last.
// It returns the median set-up time and the heap the last system holds.
func measureSetup(c runConfig, in *inputs) (sys *system, seconds float64, heap uint64, err error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, 0, 0, err
			}
			sys = nil
		}
		before := heapInUse()
		t0 := time.Now()
		sys, err = setupOnce(c, in)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if after := heapInUse(); after > before {
			heap = after - before
		}
	}
	return sys, median(times), heap, nil
}

// runEndToEnd is the untraced run: set-up, warm-up, the measured
// window, then the recall judgement and the remaining gates.
func runEndToEnd(c runConfig, in *inputs) (*report, error) {
	r := newReport(endToEnd)
	sys, setupS, heap, err := measureSetup(c, in)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	r.set("setup_s", setupS, setupRuns)
	r.set("index_mem_ratio", float64(heap)/float64(8*len(in.points)*c.w.spec.D), 0)

	mir := newMirror(in.points)
	mut := newMutator(sys.t, mir, in)
	var load loopResult
	switch c.w.drive {
	case driveSearch:
		load = closedLoop(c.warmup(), c.window, nil, func(i int) int {
			res, err := sys.t.search(in.loop[i%len(in.loop)])
			return answered(1, err == nil && len(res) == queryK)
		})
	case driveBatch:
		load = closedLoop(c.warmup(), c.window, nil, func(i int) int {
			qs := batchSlice(in.loop, i)
			out, err := sys.lib.ix.SearchBatch(context.Background(), qs, queryK, sys.lib.opts...)
			ok := err == nil && len(out) == len(qs)
			for _, res := range out {
				ok = ok && len(res) == queryK
			}
			return answered(len(qs), ok)
		})
	case driveServe:
		load = serveLoad(sys.sv.endpoint, in.loop, mut, in.mutations(), c.warmup(), c.budget)
	}
	r.count(load.issued, load.failed)
	r.set("query_p50_ms", p50MS(load.samples), len(load.samples))
	r.set("query_p99_ms", windowedP99(load.samples, load.from, load.to), len(load.samples))
	r.set("qps", float64(load.queries)/load.seconds(), load.queries)
	r.set("cpu_ms_per_query", ms(load.cpu)/float64(load.queries), load.queries)

	// The judge: the fixed queries against brute force over the live
	// set — the build rows for the library workloads, the mirror of
	// everything acknowledged for the serve workload.
	truth, err := mir.truth(in.fixed, queryK)
	if err != nil {
		return nil, err
	}
	results := make([][]metrics.Neighbor, len(in.fixed))
	for i, q := range in.fixed {
		res, err := sys.t.search(q)
		if err != nil || len(res) != queryK {
			r.count(0, 1)
		}
		results[i] = res
	}
	r.count(len(in.fixed), 0)
	recall, ratio, err := score(results, truth)
	if err != nil {
		return nil, err
	}
	r.set("recall_at_50", recall, len(in.fixed))
	r.set("ratio", ratio, len(in.fixed))
	if recall < c.w.recallFloor {
		r.gate("recall_at_50 %.4f is below the workload's floor %.2f", recall, c.w.recallFloor)
	}
	if c.w.drive == driveBatch {
		if err := batchEqualsSearch(sys.lib, in.fixed, results); err != nil {
			r.gate("%v", err)
		}
	}

	r.count(mut.issued, mut.failed)
	if mut.firstErr != nil {
		r.gate("mutation schedule: %v", mut.firstErr)
	}
	if err := mut.checkLive(); err != nil {
		r.gate("%v", err)
	}
	if c.w.drive == driveServe {
		// The mutator ran beside the load loop: drop its warm-up.
		ins, del := completedAfter(mut.inserts, load.from), completedAfter(mut.deletes, load.from)
		lag := slices.Clone(mut.lagMS)
		slices.Sort(lag)
		r.note("open-loop mutator: %d ops at %d/s, %d compactions; from due time to 200: insert p50 %.3f ms (n=%d), delete p50 %.3f ms (n=%d), worst op %.2f ms; sent late by p50 %.3f ms, p99 %.3f ms",
			mut.issued-mut.compacts, mutationRate, mut.compacts,
			p50MS(ins), len(ins), p50MS(del), len(del), mut.stallMS,
			percentile(lag, 0.5), percentile(lag, 0.99))
	}
	err = sys.close()
	sys = nil
	return r, err
}

// answered is n when ok and 0 otherwise: a loop op's report of how
// many queries it answered.
func answered(n int, ok bool) int {
	if ok {
		return n
	}
	return 0
}

// batchSlice is the i-th batch of the cycled query set.
func batchSlice(loop [][]float64, i int) [][]float64 {
	n := min(batchSize, len(loop))
	at := (i * n) % (len(loop) - n + 1)
	return loop[at : at+n]
}

// batchEqualsSearch is the batch workload's gate: SearchBatch must
// answer each query exactly as Search does, id for id.
func batchEqualsSearch(lib *libTarget, qs [][]float64, single [][]metrics.Neighbor) error {
	out, err := lib.ix.SearchBatch(context.Background(), qs, queryK, lib.opts...)
	if err != nil {
		return fmt.Errorf("SearchBatch over the fixed queries: %w", err)
	}
	for i := range qs {
		if !slices.Equal(libNeighbors(out[i]), single[i]) {
			return fmt.Errorf("SearchBatch answer %d differs from Search", i)
		}
	}
	return nil
}

// completedAfter keeps the samples that completed at or after from.
func completedAfter(ss []sample, from time.Duration) []sample {
	i := 0
	for i < len(ss) && ss[i].at < from {
		i++
	}
	return ss[i:]
}

// serveLoad is reads beside writes over HTTP: one connection searches
// in a closed loop; the mutator's connection (its own target) applies
// ops operations of the schedule in an open loop at mutationRate,
// compacting three times on the way. The reader stops when the mutator
// has sent its last op; what it did in the first warm is not measured.
func serveLoad(e *endpoint, queries [][]float64, mut *mutator, ops int, warm time.Duration, budget int) loopResult {
	rc := e.client()
	defer rc.CloseIdleConnections()
	reader := &httpTarget{do: clientDo(rc, e.base), budget: budget}

	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i] = reader.searchRequest(q)
	}
	stop := make(chan struct{})
	epoch := time.Now()
	go func() {
		defer close(stop)
		mut.run(epoch, ops, mutationRate, ops/3)
	}()
	load := closedLoop(warm, 0, stop, func(i int) int {
		res, err := reader.searchEncoded(bodies[i%len(bodies)])
		return answered(1, err == nil && len(res) == queryK)
	})
	<-stop
	return load
}
