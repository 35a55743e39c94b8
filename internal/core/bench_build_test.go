package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/pmtree"
	"repro/internal/store"
)

// buildShapes are the three builds the repository benchmark performs
// (benchmark/inputs.go: knn-d128 and batch-d128, knn-d768, serve-churn),
// generated the same way.
var buildShapes = []struct {
	spec   dataset.Spec
	shards int
}{
	{dataset.Spec{N: 20000, D: 128, SubspaceDim: 12, RCTarget: 2.0}, 1},
	{dataset.Spec{N: 8000, D: 768, SubspaceDim: 16, RCTarget: 2.5}, 1},
	{dataset.Spec{N: 5000, D: 64, SubspaceDim: 8, RCTarget: 2.2}, 2},
}

func shapePoints(b *testing.B, spec dataset.Spec) [][]float64 {
	b.Helper()
	spec.Name, spec.Seed = "build", 7919
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Points
}

// ms reports the mean per iteration of a duration summed over b.N.
func ms(b *testing.B, total time.Duration, unit string) {
	b.ReportMetric(float64(total.Microseconds())/1000/float64(b.N), unit)
}

// BenchmarkBuildPhases is the build's per-phase bill at GOMAXPROCS 1
// and 2: each phase timed alone, shard after shard (copy_ms the rows
// into the store, project_ms, tree_ms the bulk load, sample_ms the F(x)
// sample), then build_ms, the wall time of the BuildEngine that runs
// the sample beside projection and bulk load. build_ms under the sum of
// the four is what the overlap hides; tree_ms and project_ms falling
// from procs=1 to procs=2 is what the second core buys.
func BenchmarkBuildPhases(b *testing.B) {
	for _, shape := range buildShapes {
		data := shapePoints(b, shape.spec)
		cfg := Config{Seed: 7, Shards: shape.shards}
		inner := cfg
		inner.fillDefaults()
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/d=%d/shards=%d/procs=%d", shape.spec.N, shape.spec.D, shape.shards, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var copyT, projectT, treeT, sampleT, buildT time.Duration
				clock := func(total *time.Duration, fn func()) {
					t0 := time.Now()
					fn()
					*total += time.Since(t0)
				}
				for i := 0; i < b.N; i++ {
					for s := 0; s < shape.shards; s++ {
						var rows [][]float64
						for r := s; r < len(data); r += shape.shards {
							rows = append(rows, data[r])
						}
						proj, err := lsh.NewProjection(inner.M, shape.spec.D, inner.Seed)
						if err != nil {
							b.Fatal(err)
						}
						var st, projected *store.Store
						clock(&copyT, func() { st, err = store.FromRows(rows) })
						if err != nil {
							b.Fatal(err)
						}
						clock(&projectT, func() { projected, err = proj.ProjectStore(st) })
						if err != nil {
							b.Fatal(err)
						}
						clock(&treeT, func() {
							_, err = pmtree.BuildFromStore(projected, nil, pmtree.Config{NumPivots: inner.NumPivots, PivotSeed: inner.Seed + 1})
						})
						if err != nil {
							b.Fatal(err)
						}
						clock(&sampleT, func() { sampleDistanceDistribution(st, inner) })
					}
					clock(&buildT, func() {
						if _, err := BuildEngine(data, cfg); err != nil {
							b.Fatal(err)
						}
					})
				}
				ms(b, copyT, "copy_ms")
				ms(b, projectT, "project_ms")
				ms(b, treeT, "tree_ms")
				ms(b, sampleT, "sample_ms")
				ms(b, buildT, "build_ms")
			})
		}
	}
}

// BenchmarkCompact is one shard's compaction after churn (a fifth of
// the rows deleted, a tenth as many inserted behind them): compact_ms
// is the wall time the shard's writer mutex is held, repack_ms the
// gather of the live rows into one sized buffer, timed alone.
func BenchmarkCompact(b *testing.B) {
	for _, shape := range buildShapes {
		data := shapePoints(b, shape.spec)[:shape.spec.N/shape.shards]
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/d=%d/procs=%d", len(data), shape.spec.D, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var repackT, compactT time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer() // ns/op is the repack probe plus the compaction, not the churned index
					ix, err := Build(data, Config{Seed: 7, AutoCompactFraction: -1})
					if err != nil {
						b.Fatal(err)
					}
					for id := 0; id < len(data); id += 5 {
						if err := ix.Delete(int32(id)); err != nil {
							b.Fatal(err)
						}
					}
					for r := 0; r < len(data); r += 10 {
						if _, err := ix.Insert(data[r]); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					t0 := time.Now()
					ix.repack(ix.view.Load())
					repackT += time.Since(t0)
					t0 = time.Now()
					if err := ix.Compact(); err != nil {
						b.Fatal(err)
					}
					compactT += time.Since(t0)
				}
				ms(b, repackT, "repack_ms")
				ms(b, compactT, "compact_ms")
			})
		}
	}
}
