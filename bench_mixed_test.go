package pmlsh

// Mixed read/write benchmarks: query latency and throughput measured
// while a mutator goroutine churns the index with Insert, Delete and
// periodic Compact. Three engines are compared on identical workloads:
//
//   - rwmutex: the bare single-shard core.Index, whose mutations take
//     a writer lock that stalls every reader (the pre-sharding serving
//     path, kept as the baseline);
//   - shards=1: the public Index at the default shard count — same
//     single-partition answers, but reads pin a published snapshot and
//     never wait;
//   - shards=4: four-way sharding, where mutations also spread across
//     partitions.
//
// The p99 benchmarks report tail latency ("p99-ns" / "p50-ns"), the
// metric the snapshot scheme exists to fix: under the RWMutex engine a
// reader arriving during a Compact waits the whole rebuild out, so the
// tail tracks rebuild time; under the sharded engine it reads the old
// snapshot and the tail tracks ordinary query time. The GOMAXPROCS
// sweep measures aggregate read throughput at 2, 4 and 8 procs.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// mixedEngine is the slice of the index surface the mixed benchmarks
// drive, implemented by both the RWMutex baseline and the public
// engine.
type mixedEngine struct {
	knn     func(q []float64, k int) error
	insert  func(p []float64) (int32, error)
	delete  func(id int32) error
	compact func() error
}

func rwmutexEngine(b *testing.B, data [][]float64) mixedEngine {
	b.Helper()
	ix, err := core.Build(data, core.Config{Seed: 5, AutoCompactFraction: -1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	return mixedEngine{
		knn: func(q []float64, k int) error {
			_, err := ix.Search(ctx, q, k, core.SearchOptions{})
			return err
		},
		insert:  ix.Insert,
		delete:  ix.Delete,
		compact: ix.Compact,
	}
}

func shardedEngine(b *testing.B, data [][]float64, shards int) mixedEngine {
	b.Helper()
	ix, err := Build(data, Config{Seed: 5, AutoCompactFraction: -1, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	return mixedEngine{
		knn: func(q []float64, k int) error {
			_, err := ix.Search(context.Background(), q, k, WithRatio(1.5))
			return err
		},
		insert:  ix.Insert,
		delete:  ix.Delete,
		compact: ix.Compact,
	}
}

// mixedEngines enumerates the benchmark grid in display order.
func mixedEngines(data [][]float64) []struct {
	name string
	mk   func(b *testing.B) mixedEngine
} {
	return []struct {
		name string
		mk   func(b *testing.B) mixedEngine
	}{
		{"engine=rwmutex", func(b *testing.B) mixedEngine { return rwmutexEngine(b, data) }},
		{"engine=shards1", func(b *testing.B) mixedEngine { return shardedEngine(b, data, 1) }},
		{"engine=shards4", func(b *testing.B) mixedEngine { return shardedEngine(b, data, 4) }},
	}
}

// startMutator runs a steady-state churn loop — insert a point, delete
// the previously inserted one, Compact every compactEvery cycles —
// until stop closes. Live count stays within one of the build size, so
// readers measure lock/snapshot behavior, not dataset drift.
func startMutator(b *testing.B, e mixedEngine, pts [][]float64, compactEvery int, stop chan struct{}, wg *sync.WaitGroup) {
	b.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := int32(-1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := e.insert(pts[i%len(pts)])
			if err != nil {
				b.Error(err)
				return
			}
			if prev >= 0 {
				if err := e.delete(prev); err != nil {
					b.Error(err)
					return
				}
			}
			prev = id
			if compactEvery > 0 && i%compactEvery == compactEvery-1 {
				if err := e.compact(); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BenchmarkMixedReadP99 measures single-reader KNN latency while the
// mutator churns (Compact every 24 write cycles) and reports the p50
// and p99 of the per-query latencies next to the mean ns/op.
func BenchmarkMixedReadP99(b *testing.B) {
	w := workload(b)
	for _, eng := range mixedEngines(w.Dataset.Points) {
		b.Run(eng.name, func(b *testing.B) {
			e := eng.mk(b)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			startMutator(b, e, w.Dataset.Points, 24, stop, &wg)
			lat := make([]float64, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := e.knn(w.Queries[i%len(w.Queries)], 50); err != nil {
					b.Fatal(err)
				}
				lat[i] = float64(time.Since(t0).Nanoseconds())
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			sort.Float64s(lat)
			b.ReportMetric(percentile(lat, 0.50), "p50-ns")
			b.ReportMetric(percentile(lat, 0.99), "p99-ns")
		})
	}
}

// BenchmarkMixedThroughput measures aggregate KNN throughput of
// GOMAXPROCS parallel readers under the same churn, swept across
// GOMAXPROCS 2, 4 and 8 — the sweep that shows reader scaling once the
// writer lock is out of the read path. ns/op is per query; aggregate
// QPS is procs/(ns/op).
func BenchmarkMixedThroughput(b *testing.B) {
	w := workload(b)
	for _, procs := range []int{2, 4, 8} {
		for _, eng := range mixedEngines(w.Dataset.Points) {
			if eng.name == "engine=shards1" {
				continue // the p99 grid covers it; the sweep contrasts the poles
			}
			b.Run(fmt.Sprintf("%s/procs=%d", eng.name, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				e := eng.mk(b)
				stop := make(chan struct{})
				var wg sync.WaitGroup
				startMutator(b, e, w.Dataset.Points, 24, stop, &wg)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if err := e.knn(w.Queries[i%len(w.Queries)], 50); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				})
				b.StopTimer()
				close(stop)
				wg.Wait()
			})
		}
	}
}
