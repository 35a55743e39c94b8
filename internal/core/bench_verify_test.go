package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/metric"
)

// BenchmarkVerifySplit is the sweep behind splitMinWork: one round's
// exact verification at k = 50 of the m projected-nearest rows (what a
// scanning round at budget m verifies) at the repository benchmark's
// shapes, serially (helpers=0) and shared with a helper started for it
// at GOMAXPROCS 2 (helpers=1), for work = m·d from 2^15 to 2^21, finer
// between 2^18 and 2^19 (the d=64 shape stops at its 5 000 rows). Where
// helpers=1 starts beating helpers=0 at every d is where a query's
// verification pays for a goroutine's start and join.
func BenchmarkVerifySplit(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, shape := range buildShapes {
		data := shapePoints(b, shape.spec)
		ix, err := Build(data, Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		v := ix.view.Load()
		q := data[len(data)/2]
		sc := ix.getScratch()
		top := make([]Result, 0, 50)
		for _, work := range []int{1 << 15, 1 << 16, 1 << 17, 1 << 18, 5 << 16, 3 << 17, 7 << 16, 1 << 19, 1 << 20, 1 << 21} {
			m := work / shape.spec.D
			if m < 2*verifyClaim || m > len(data) {
				continue
			}
			en, err := ix.startEnum(sc, v.tree, q, false)
			if err != nil {
				b.Fatal(err)
			}
			sc.ids, _ = en.Nearest(math.Inf(1), m, nil, sc.ids)
			for _, helpers := range []int{0, 1} {
				b.Run(fmt.Sprintf("work=%d/d=%d/helpers=%d", work, shape.spec.D, helpers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						vf := verifier{view: v, q: q, blk: &sc.blk, k: 50, top: top[:0], bound: math.Inf(1)}
						if helpers == 0 {
							vf.run(sc.ids)
						} else {
							h := sc.startHelper(splitMinWork) // whatever the round's work
							if h == nil {
								b.Fatal("no helper on an idle core")
							}
							h.verify(&vf, sc.ids)
							h.join()
						}
					}
				})
			}
		}
		ix.putScratch(sc, v.live())
	}
}

// BenchmarkConcurrentSearch times k = 50 Searches on one shard of the
// knn-d128 and knn-d768 shapes from one closed-loop caller and from two
// at once; run it with -cpu 2, where two callers are a busy single-shard
// server whose handlers already fill the cores. ns/op is wall time per
// query across the callers: at callers=1 the latency a helper buys, at
// callers=2 the inverse of throughput, where CPU spent on a helper would
// show as a loss. cpu_us/op is the process's user + system CPU over the
// timed loop per query: what a helper costs.
func BenchmarkConcurrentSearch(b *testing.B) {
	for _, shape := range buildShapes[:2] {
		data := shapePoints(b, shape.spec)
		ix, err := Build(data, Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for _, callers := range []int{1, 2} {
			b.Run(fmt.Sprintf("d=%d/callers=%d", shape.spec.D, callers), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				cpu0 := processCPU(b)
				wg.Add(callers)
				for range callers {
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							if _, err := ix.Search(context.Background(), data[i*7919%len(data)], 50, SearchOptions{}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64((processCPU(b)-cpu0).Microseconds())/float64(b.N), "cpu_us/op")
			})
		}
	}
}

// processCPU is the process's user + system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkHelperStart measures what splitMinWork pays for: the delay
// from a go statement to the new goroutine's first instruction, at
// GOMAXPROCS 2 with the other P idle, as a query's helper finds it. The
// starting goroutine stays busy throughout, as a query is: it spins
// until the new goroutine reports, so that one must be taken up by the
// idle P, and for 200 µs before each sample, so that P is parked again.
// It reports the p50 and p99 delay over b.N samples.
func BenchmarkHelperStart(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	delays := make([]time.Duration, b.N)
	var started atomic.Int64
	for i := range delays {
		for t := time.Now(); time.Since(t) < 200*time.Microsecond; {
		}
		started.Store(0)
		t0 := time.Now()
		go func() { started.Store(int64(time.Since(t0)) + 1) }()
		for started.Load() == 0 {
		}
		delays[i] = time.Duration(started.Load() - 1)
	}
	slices.Sort(delays)
	b.ReportMetric(float64(delays[len(delays)/2].Microseconds()), "p50_us")
	b.ReportMetric(float64(delays[len(delays)*99/100].Microseconds()), "p99_us")
}

// BenchmarkShardedSearch times k = 50 Searches from one closed-loop
// caller on engines of 1, 2 and 4 shards over the serve-churn shape:
// the repository benchmark's seed-1 rows (5 000 × 64, build seed 7) and
// the first 200 of its scored queries, cycled. Run it with -cpu 2, the
// benchmark's GOMAXPROCS. ns/op is wall time per query, cpu_us/op the
// process's CPU per query (as BenchmarkConcurrentSearch), verified/op
// the exact distances a query computes and recall@50 the share of the
// exact 50 nearest (lscan.ExactKNN) it returns.
func BenchmarkShardedSearch(b *testing.B) {
	spec := buildShapes[2].spec
	spec.Name, spec.Seed = "serve-churn", 7919
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	qs := ds.Queries(200, 7921)
	live := make(map[int32][]float64, len(ds.Points))
	for i, p := range ds.Points {
		live[int32(i)] = p
	}
	exact := make([]map[int32]bool, len(qs))
	for i, q := range qs {
		exact[i] = lscan.ExactKNN(live, q, 50, metric.L2)
	}
	for _, shards := range []int{1, 2, 4} {
		e, err := BuildEngine(ds.Points, Config{Seed: 7, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var st QueryStats
			verified, hits := 0, 0
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				res, err := e.Search(context.Background(), qs[i%len(qs)], 50, SearchOptions{Stats: &st})
				if err != nil {
					b.Fatal(err)
				}
				verified += st.Verified
				for _, r := range res {
					if exact[i%len(qs)][r.ID] {
						hits++
					}
				}
			}
			b.ReportMetric(float64((processCPU(b)-cpu0).Microseconds())/float64(b.N), "cpu_us/op")
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
			b.ReportMetric(float64(hits)/float64(50*b.N), "recall@50")
		})
	}
}
