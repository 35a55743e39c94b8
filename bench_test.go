package pmlsh

// One benchmark per table and figure of the paper's evaluation section,
// plus ablations (tree choice, confidence-interval width) and engine
// microbenchmarks (single-query KNN, batch-query throughput).
// Benchmarks run on scaled-down synthetic datasets so `go test
// -bench=.` finishes in minutes; cmd/reprobench regenerates the full
// tables (and accepts a -scale flag for paper-scale cardinalities).
// CHANGES.md records measured engine numbers per PR.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimator"
)

// benchEnv lazily builds the shared workload once per process.
type benchEnv struct {
	once sync.Once
	w    *bench.Workload
	err  error
}

var env benchEnv

func workload(b *testing.B) *bench.Workload {
	b.Helper()
	env.once.Do(func() {
		ds, err := dataset.Generate(dataset.Spec{
			Name: "bench", N: 4000, D: 64, Clusters: 12, SubspaceDim: 8, RCTarget: 2.2, Seed: 42,
		})
		if err != nil {
			env.err = err
			return
		}
		env.w, env.err = bench.NewWorkload(ds, 20, 100, 43)
	})
	if env.err != nil {
		b.Fatal(env.err)
	}
	return env.w
}

// BenchmarkTable4Overview measures per-query latency of every algorithm
// at the paper's defaults (k=50, c=1.5) — the content of Table 4.
func BenchmarkTable4Overview(b *testing.B) {
	w := workload(b)
	for _, name := range bench.AllAlgos() {
		b.Run(string(name), func(b *testing.B) {
			a, err := bench.BuildAlgo(name, w.Dataset.Points, bench.BuildConfig{Seed: 1, QALSHMaxHashes: 80})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.KNN(w.Queries[i%len(w.Queries)], 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2CostModel evaluates the PM-tree vs R-tree cost model
// on projected points — the content of Table 2.
func BenchmarkTable2CostModel(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := bench.CostModel(w.Dataset, 15, 0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if cmp.PMTreeCC >= cmp.RTreeCC {
			b.Fatalf("Table 2 shape violated: PM %v >= R %v", cmp.PMTreeCC, cmp.RTreeCC)
		}
	}
}

// BenchmarkTable3DatasetStats computes HV/RC/LID — the content of
// Table 3.
func BenchmarkTable3DatasetStats(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.DatasetStats(w.Dataset, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Estimators ranks the dataset with the four distance
// estimators — the content of Fig. 3.
func BenchmarkFig3Estimators(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := bench.EstimatorStudy(w.Dataset, 3, []int{100, 500}, 50, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != len(estimator.Kinds()) {
			b.Fatal("missing curves")
		}
	}
}

// BenchmarkFig6ParamSweep builds PM-LSH at several s and m values and
// measures query behavior — the content of Fig. 6.
func BenchmarkFig6ParamSweep(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ParamSweep(w, 10, []int{0, 5}, []int{10, 15}, bench.BuildConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7to9VaryK sweeps k for PM-LSH and SRS — the content of
// Figs. 7–9 (per-k latency of the two leading methods).
func BenchmarkFig7to9VaryK(b *testing.B) {
	w := workload(b)
	for _, k := range []int{1, 20, 50, 100} {
		for _, name := range []bench.AlgoName{bench.PMLSH, bench.SRS} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				a, err := bench.BuildAlgo(name, w.Dataset.Points, bench.BuildConfig{Seed: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.KNN(w.Queries[i%len(w.Queries)], k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10and11Tradeoff sweeps the quality knobs that generate
// the recall–time and ratio–time curves of Figs. 10–11.
func BenchmarkFig10and11Tradeoff(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bench.Tradeoff(w, 10, []float64{1.2, 1.8}, []int{16}, []float64{0.5},
			bench.BuildConfig{Seed: int64(i), QALSHMaxHashes: 60})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTreeChoice isolates the PM-tree vs R-tree decision
// inside the identical Algorithm 2 (PM-LSH vs R-LSH): the harness's
// restart loop over pmtree.RangeSearch against the same loop over
// rtree.RangeSearch, so neither side scans.
func BenchmarkAblationTreeChoice(b *testing.B) {
	w := workload(b)
	for _, name := range []bench.AlgoName{bench.PMLSH, bench.RLSH} {
		b.Run(string(name), func(b *testing.B) {
			a, err := bench.BuildTreeAblation(name, w.Dataset.Points, bench.BuildConfig{Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.KNN(w.Queries[i%len(w.Queries)], 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlpha sweeps the confidence-interval width α₁ — not
// a paper experiment, but the knob Lemma 4 exposes: smaller α₁ widens
// the projected radius (more candidates, higher recall).
func BenchmarkAblationAlpha(b *testing.B) {
	w := workload(b)
	for _, alpha := range []float64{0.05, 1 / 2.718281828, 0.8} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			ix, err := Build(w.Dataset.Points, Config{Seed: 4, Alpha1: alpha})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 20, WithRatio(1.5)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures construction cost of the PM-LSH index.
func BenchmarkIndexBuild(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(w.Dataset.Points, Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryK50 is the headline microbenchmark: one (1.5,50)-ANN
// query at the paper's defaults. Besides the ns/B/allocs triple it
// reports pdc/op, the mean projected-space distance computations per
// query (QueryStats.ProjectedDistComps): the tree's row count for a
// query that scans.
func BenchmarkQueryK50(b *testing.B) {
	w := workload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		var st QueryStats
		_, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 50, WithRatio(1.5), WithStats(&st))
		if err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// benchQueryK50Quant runs the headline query against an index built
// with the given screening codec, reporting scr/op (candidates the
// quantized screen rejected without an exact distance) next to pdc/op.
func benchQueryK50Quant(b *testing.B, w *bench.Workload, kind QuantKind) {
	ix, err := Build(w.Dataset.Points, Config{Seed: 5, Quantize: kind})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc, scr int64
	for i := 0; i < b.N; i++ {
		var st QueryStats
		_, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 50, WithRatio(1.5), WithStats(&st))
		if err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
		scr += int64(st.Screened)
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
	b.ReportMetric(float64(scr)/float64(b.N), "scr/op")
}

// BenchmarkQueryK50QuantF32 is BenchmarkQueryK50 with the float32
// screening codec (half the verification bandwidth).
func BenchmarkQueryK50QuantF32(b *testing.B) { benchQueryK50Quant(b, workload(b), QuantF32) }

// BenchmarkQueryK50QuantI8 is BenchmarkQueryK50 with the int8 affine
// screening codec (an eighth of the verification bandwidth).
func BenchmarkQueryK50QuantI8(b *testing.B) { benchQueryK50Quant(b, workload(b), QuantI8) }

// hdEnv lazily builds the high-dimensional workload once per process:
// n≈2000 embedding-like rows at d=768, where exact verification is
// memory-bandwidth-bound and screening pays off most.
type hdEnv struct {
	once sync.Once
	w    *bench.Workload
	err  error
}

var hde hdEnv

func highDimWorkload(b *testing.B) *bench.Workload {
	b.Helper()
	hde.once.Do(func() {
		ds, err := dataset.Generate(dataset.Spec{
			Name: "benchhd", N: 2000, D: 768, Clusters: 24, SubspaceDim: 16, RCTarget: 2.5, Seed: 46,
		})
		if err != nil {
			hde.err = err
			return
		}
		hde.w, hde.err = bench.NewWorkload(ds, 20, 100, 47)
	})
	if hde.err != nil {
		b.Fatal(hde.err)
	}
	return hde.w
}

// BenchmarkQueryK50HighDim is the headline query on the d=768
// embedding-like workload: per-candidate verification cost is 12×
// BenchmarkQueryK50's, so this benchmark tracks the exact-kernel and
// screening work rather than tree traversal.
func BenchmarkQueryK50HighDim(b *testing.B) {
	w := highDimWorkload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		var st QueryStats
		_, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 50, WithRatio(1.5), WithStats(&st))
		if err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// BenchmarkQueryK50HighDimQuantF32 adds float32 screening at d=768.
func BenchmarkQueryK50HighDimQuantF32(b *testing.B) {
	benchQueryK50Quant(b, highDimWorkload(b), QuantF32)
}

// BenchmarkQueryK50HighDimQuantI8 adds int8 screening at d=768 — the
// configuration the codec exists for: candidates are rejected on 8×
// less memory traffic than the float64 rows.
func BenchmarkQueryK50HighDimQuantI8(b *testing.B) {
	benchQueryK50Quant(b, highDimWorkload(b), QuantI8)
}

// BenchmarkQueryK50Filtered is the headline query under WithFilter at
// 50% selectivity (admit even ids): the filtered-search scenario the
// request API exists for. The filter runs inside the verification
// loop, so rejected candidates cost no exact distance; ver/op reports
// the admitted verifications per query for comparison against the
// unfiltered BenchmarkQueryK50.
func BenchmarkQueryK50Filtered(b *testing.B) {
	w := workload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	admit := func(id int32) bool { return id%2 == 0 }
	var st QueryStats
	opts := []SearchOption{WithRatio(1.5), WithFilter(admit), WithStats(&st)}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc, verified int64
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(ctx, w.Queries[i%len(w.Queries)], 50, opts...); err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
		verified += int64(st.Verified)
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
	b.ReportMetric(float64(verified)/float64(b.N), "ver/op")
}

// churnQEnv lazily prepares the mutation-lifecycle comparison: one
// index churned by deleting a random 40% (auto-compaction disabled so
// the tombstoned state is what gets measured), one churned identically
// and then compacted, and one built fresh over exactly the surviving
// live set. The acceptance bar is Compacted within 10% of FreshLive.
type churnQEnv struct {
	once      sync.Once
	churned   *Index
	compacted *Index
	fresh     *Index
	err       error
}

var cqe churnQEnv

func churnedIndexes(b *testing.B) (churned, compacted, fresh *Index) {
	b.Helper()
	w := workload(b)
	cqe.once.Do(func() {
		build := func() (*Index, map[int32]bool) {
			ix, err := Build(w.Dataset.Points, Config{Seed: 5, AutoCompactFraction: -1})
			if err != nil {
				cqe.err = err
				return nil, nil
			}
			rng := rand.New(rand.NewSource(131))
			dead := make(map[int32]bool)
			for _, id := range rng.Perm(len(w.Dataset.Points))[:4*len(w.Dataset.Points)/10] {
				if err := ix.Delete(int32(id)); err != nil {
					cqe.err = err
					return nil, nil
				}
				dead[int32(id)] = true
			}
			return ix, dead
		}
		var dead map[int32]bool
		cqe.churned, dead = build()
		if cqe.err != nil {
			return
		}
		cqe.compacted, _ = build()
		if cqe.err != nil {
			return
		}
		if cqe.err = cqe.compacted.Compact(); cqe.err != nil {
			return
		}
		survivors := make([][]float64, 0, cqe.churned.LiveLen())
		for i, p := range w.Dataset.Points {
			if !dead[int32(i)] {
				survivors = append(survivors, p)
			}
		}
		cqe.fresh, cqe.err = Build(survivors, Config{Seed: 5})
	})
	if cqe.err != nil {
		b.Fatal(cqe.err)
	}
	return cqe.churned, cqe.compacted, cqe.fresh
}

func benchQueryK50On(b *testing.B, ix *Index) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		var st QueryStats
		_, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 50, WithRatio(1.5), WithStats(&st))
		if err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// BenchmarkQueryK50Churned measures the query after deleting 40% of
// the dataset with compaction held off: tombstoned slots are out of
// the tree but the covering radii stay loose, so this is the worst
// sustained state the serving engine can be in.
func BenchmarkQueryK50Churned(b *testing.B) {
	churned, _, _ := churnedIndexes(b)
	benchQueryK50On(b, churned)
}

// BenchmarkQueryK50Compacted is the same churned index after
// Compact(): the acceptance criterion requires it within 10% of
// BenchmarkQueryK50FreshLive.
func BenchmarkQueryK50Compacted(b *testing.B) {
	_, compacted, _ := churnedIndexes(b)
	benchQueryK50On(b, compacted)
}

// BenchmarkQueryK50FreshLive is the reference: a fresh Build over
// exactly the live set the churned/compacted indexes serve.
func BenchmarkQueryK50FreshLive(b *testing.B) {
	_, _, fresh := churnedIndexes(b)
	benchQueryK50On(b, fresh)
}

// BenchmarkDelete measures one Delete (tree entry removal + tombstone)
// on a fresh index, auto-compaction disabled; b.N deletes then rebuild.
func BenchmarkDelete(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	var ix *Index
	var err error
	n := len(w.Dataset.Points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			ix, err = Build(w.Dataset.Points, Config{Seed: 5, AutoCompactFraction: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := ix.Delete(int32(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact measures a full Compact of the 40%-churned index.
func BenchmarkCompact(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := Build(w.Dataset.Points, Config{Seed: 5, AutoCompactFraction: -1})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(131))
		for _, id := range rng.Perm(len(w.Dataset.Points))[:4*len(w.Dataset.Points)/10] {
			if err := ix.Delete(int32(id)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := ix.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNSerial answers the whole query set one query at a time —
// the serial baseline BenchmarkKNNBatch is compared against. One
// iteration = len(w.Queries) queries for both, so ns/op is directly
// comparable and aggregate QPS is queries/(ns/op).
func BenchmarkKNNSerial(b *testing.B) {
	w := workload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		for _, q := range w.Queries {
			var st QueryStats
			_, err := ix.Search(context.Background(), q, 50, WithRatio(1.5), WithStats(&st))
			if err != nil {
				b.Fatal(err)
			}
			pdc += st.ProjectedDistComps
		}
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// cpEnv lazily builds the closest-pair reference workload once per
// process: a dedup-shaped corpus (many small clusters, as a document
// collection with templated content) with planted near-copies, plus an
// index over the union. The same workload drives the CP engine
// benchmarks and the naive per-point BallCover dedup loop they replace.
type cpEnv struct {
	once sync.Once
	w    *bench.CPWorkload
	ix   *core.Index
	err  error
}

var cpe cpEnv

const (
	cpBenchK = 60  // pairs asked of the CP engine (= planted duplicates)
	cpBenchC = 2.0 // dedup's approximation ratio (matches examples/dedup)
)

func cpWorkload(b *testing.B) (*bench.CPWorkload, *core.Index) {
	b.Helper()
	cpe.once.Do(func() {
		// Dedup-shaped corpus: many tight template clusters (near-copies
		// of a document concentrate sharply around it), higher original
		// dimensionality, plus planted near-duplicates.
		ds, err := dataset.Generate(dataset.Spec{
			Name: "cpbench", N: 2400, D: 784, Clusters: 160, SubspaceDim: 5, RCTarget: 6.0, Seed: 52,
		})
		if err != nil {
			cpe.err = err
			return
		}
		cpe.w, cpe.err = bench.NewCPWorkload(ds, cpBenchK, 53)
		if cpe.err != nil {
			return
		}
		cpe.ix, cpe.err = core.Build(cpe.w.Points, core.Config{Seed: 54})
	})
	if cpe.err != nil {
		b.Fatal(cpe.err)
	}
	return cpe.w, cpe.ix
}

// cpTailPercents are the shares of the PM-tree's rows the tail=
// sub-benchmarks put in its tail: none, a little, and up to the 30% at
// which an index with the default configuration compacts itself.
var cpTailPercents = []int{0, 5, 20, 30}

// cpTails caches cpTailIndex's indexes (benchmarks run one at a time).
var cpTails = map[int]*core.Index{}

// cpTailIndex returns an index over the closest-pair workload with pct
// percent of the tree's rows in its tail: built over the other rows,
// then the held-out ones (a seeded sample, planted copies included)
// inserted with auto-compaction off. The point set is the workload's at
// every pct, so the queries find the same points and only the work to
// find them differs — the traversal-with-tail path SearchBall and
// SearchPairs take between two compactions.
func cpTailIndex(b *testing.B, pct int) *core.Index {
	b.Helper()
	w, ix := cpWorkload(b)
	if pct == 0 {
		return ix
	}
	if tail := cpTails[pct]; tail != nil {
		return tail
	}
	order := rand.New(rand.NewSource(55)).Perm(len(w.Points))
	held := len(w.Points) * pct / 100
	base := make([][]float64, 0, len(w.Points)-held)
	for _, i := range order[held:] {
		base = append(base, w.Points[i])
	}
	tail, err := core.Build(base, core.Config{Seed: 54, AutoCompactFraction: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, i := range order[:held] {
		if _, err := tail.Insert(w.Points[i]); err != nil {
			b.Fatal(err)
		}
	}
	cpTails[pct] = tail
	return tail
}

// BenchmarkClosestPairs measures one (c,k)-closest-pair query over the
// reference dedup workload at both ends of the one driver: shards=1 is
// the bare index (one self-join, the quantile read in place) with none
// to 30% of the tree's rows in its tail (see cpTailIndex), shards=3 the
// engine's merge of three self-joins and three bipartite joins.
func BenchmarkClosestPairs(b *testing.B) {
	w, _ := cpWorkload(b)
	run := func(b *testing.B, searchPairs func(context.Context, int, core.SearchOptions) ([]core.Pair, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := searchPairs(context.Background(), cpBenchK, core.SearchOptions{C: cpBenchC}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, pct := range cpTailPercents {
		b.Run(fmt.Sprintf("shards=1/tail=%d%%", pct), func(b *testing.B) { run(b, cpTailIndex(b, pct).SearchPairs) })
	}
	b.Run("shards=3", func(b *testing.B) {
		e, err := core.BuildEngine(w.Points, core.Config{Seed: 54, Shards: 3})
		if err != nil {
			b.Fatal(err)
		}
		run(b, e.SearchPairs)
	})
}

// BenchmarkNaiveDedupBallCover is the pre-subsystem baseline on the
// same workload: one BallCover probe per corpus point (n independent
// probes, each re-projecting the point and re-traversing the tree).
// One iteration covers the whole corpus, so ns/op compares directly
// with one ClosestPairs call above, at the same tail shares.
func BenchmarkNaiveDedupBallCover(b *testing.B) {
	w, _ := cpWorkload(b)
	for _, pct := range cpTailPercents {
		b.Run(fmt.Sprintf("tail=%d%%", pct), func(b *testing.B) {
			ix := cpTailIndex(b, pct)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.NaiveDedupBallCover(ix, w.Points, w.DupRadius, cpBenchC); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNBatch fans the same query set across the SearchBatch
// worker pool (GOMAXPROCS workers): the first-class concurrent read
// path. The pdc/op metric (projected distance computations per batch)
// is collected in the timed loop itself through WithBatchStats — the
// per-query counters are exact under concurrency, so no serial
// pre-measurement pass is needed.
func BenchmarkKNNBatch(b *testing.B) {
	w := workload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	stats := make([]QueryStats, len(w.Queries))
	opts := []SearchOption{WithRatio(1.5), WithBatchStats(stats)}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchBatch(ctx, w.Queries, 50, opts...); err != nil {
			b.Fatal(err)
		}
		for j := range stats {
			pdc += stats[j].ProjectedDistComps
		}
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// benchQueryK50Metric runs the headline query against a reduced-metric
// build of the same workload: the reduction (normalize for cosine,
// dimension augmentation for inner product) happens at build and query
// time, so any slowdown relative to BenchmarkQueryK50 is the price of
// the metric itself.
func benchQueryK50Metric(b *testing.B, m Metric) {
	w := workload(b)
	ix, err := Build(w.Dataset.Points, Config{Seed: 5, Metric: m})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pdc int64
	for i := 0; i < b.N; i++ {
		var st QueryStats
		_, err := ix.Search(context.Background(), w.Queries[i%len(w.Queries)], 50, WithRatio(1.5), WithStats(&st))
		if err != nil {
			b.Fatal(err)
		}
		pdc += st.ProjectedDistComps
	}
	b.ReportMetric(float64(pdc)/float64(b.N), "pdc/op")
}

// BenchmarkQueryK50Cosine is BenchmarkQueryK50 under the cosine
// reduction (normalize-on-ingest, L2 internally).
func BenchmarkQueryK50Cosine(b *testing.B) { benchQueryK50Metric(b, MetricCosine) }

// BenchmarkQueryK50MIP is BenchmarkQueryK50 under the inner-product
// reduction (augmented dimension, wider DefaultMIPAlpha1 schedule).
func BenchmarkQueryK50MIP(b *testing.B) { benchQueryK50Metric(b, MetricInnerProduct) }

// jacEnv lazily builds the shared Jaccard corpus once per process:
// 200 clusters of a base set plus 4 near-duplicate variants, 40
// tokens each — 1000 sets behind the MinHash band-LSH backend.
type jacEnv struct {
	once sync.Once
	sets [][]uint64
	ix   *Index
	err  error
}

var jenv jacEnv

func jaccardBenchIndex(b *testing.B) (*Index, [][]uint64) {
	b.Helper()
	jenv.once.Do(func() {
		jenv.sets = jaccardCorpus(200, 5, 40, 77)
		jenv.ix, jenv.err = BuildSets(jenv.sets, Config{Metric: MetricJaccard, Seed: 77})
	})
	if jenv.err != nil {
		b.Fatal(jenv.err)
	}
	return jenv.ix, jenv.sets
}

// BenchmarkJaccardSearch measures one top-10 set query against the
// MinHash backend: band-bucket probing plus exact-Jaccard rescore.
func BenchmarkJaccardSearch(b *testing.B) {
	ix, sets := jaccardBenchIndex(b)
	ctx := context.Background()
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = make([]float64, 0, len(sets[i*5]))
		for _, tok := range sets[i*5] {
			queries[i] = append(queries[i], float64(tok))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.Search(ctx, queries[i%len(queries)], 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkTextDedupPairs measures the whole-corpus duplicate sweep:
// one SearchPairs call over the 1000-set corpus, the operation behind
// examples/textdedup.
func BenchmarkTextDedupPairs(b *testing.B) {
	ix, _ := jaccardBenchIndex(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := ix.SearchPairs(ctx, 100)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}
