package pmlsh

// Recall / overall-ratio regression tests (the paper's two quality
// metrics, Eqs. 11-12), asserted against seeded brute-force ground
// truth so a regression in the query engine's quality — not just its
// latency — fails CI. Dataset sizes are -short-safe; the table is
// deterministic (fixed seeds throughout).

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/metrics"
)

// uniformData draws n points uniformly from [0,1)^d — the hard,
// structure-free case for any sublinear method.
func uniformData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		out[i] = p
	}
	return out
}

func TestRecallAndRatioRegression(t *testing.T) {
	type tc struct {
		name      string
		data      [][]float64
		queries   [][]float64
		k         int
		c         float64
		minRecall float64
	}
	var cases []tc

	// MNIST-like: the paper's Table 3 shape at a -short-safe scale.
	spec, err := dataset.SpecByName("MNIST", 0.02, 1200) // 1200 × 784
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{
		name: "MNIST-like", data: ds.Points, queries: ds.Queries(15, 7),
		k: 10, c: 1.5, minRecall: 0.8,
	})

	// Uniform: no cluster structure at all (d modest — with m = 15
	// projections, recall on structure-free uniform data degrades as d
	// grows; d = 32 keeps the test sharp without crossing into the
	// regime where the paper itself reports reduced recall).
	uni := uniformData(1500, 32, 9)
	uq := make([][]float64, 15)
	rng := rand.New(rand.NewSource(10))
	for i := range uq {
		src := uni[rng.Intn(len(uni))]
		q := make([]float64, len(src))
		for j, v := range src {
			q[j] = v + rng.NormFloat64()*0.01
		}
		uq[i] = q
	}
	cases = append(cases, tc{
		name: "uniform", data: uni, queries: uq,
		k: 10, c: 1.5, minRecall: 0.8,
	})

	// Quantized screening is reject-only, so every quality gate must
	// hold verbatim with a codec installed — run each case under all
	// three codec kinds against shared ground truth.
	quants := []struct {
		name string
		kind QuantKind
	}{{"none", QuantNone}, {"f32", QuantF32}, {"i8", QuantI8}}

	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			// Exact ground truth: a full-fraction linear scan.
			sc, err := lscan.New(tcase.data, lscan.Config{Fraction: 1.0, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			truths := make([][]metrics.Neighbor, len(tcase.queries))
			for qi, q := range tcase.queries {
				truthRaw, err := sc.KNN(q, tcase.k)
				if err != nil {
					t.Fatal(err)
				}
				truth := make([]metrics.Neighbor, len(truthRaw))
				for i, n := range truthRaw {
					truth[i] = metrics.Neighbor{ID: n.ID, Dist: n.Dist}
				}
				truths[qi] = truth
			}
			for _, qt := range quants {
				t.Run("quantize="+qt.name, func(t *testing.T) {
					ix, err := Build(tcase.data, Config{Seed: 3, Quantize: qt.kind})
					if err != nil {
						t.Fatal(err)
					}
					var recallSum, ratioSum float64
					for qi, q := range tcase.queries {
						truth := truths[qi]
						resRaw, err := ix.Search(context.Background(), q, tcase.k, WithRatio(tcase.c))
						if err != nil {
							t.Fatal(err)
						}
						res := make([]metrics.Neighbor, len(resRaw))
						for i, n := range resRaw {
							res[i] = metrics.Neighbor{ID: n.ID, Dist: n.Dist}
						}
						recall, err := metrics.Recall(res, truth)
						if err != nil {
							t.Fatal(err)
						}
						ratio, err := metrics.OverallRatio(res, truth)
						if err != nil {
							t.Fatal(err)
						}
						// The per-query ratio must respect the c guarantee.
						if ratio > tcase.c+1e-9 {
							t.Errorf("per-query overall ratio %v exceeds c=%v", ratio, tcase.c)
						}
						recallSum += recall
						ratioSum += ratio
					}
					n := float64(len(tcase.queries))
					meanRecall, meanRatio := recallSum/n, ratioSum/n
					t.Logf("recall=%.3f ratio=%.4f over %d queries", meanRecall, meanRatio, len(tcase.queries))
					if meanRecall < tcase.minRecall {
						t.Errorf("mean recall %.3f below %.2f", meanRecall, tcase.minRecall)
					}
					if meanRatio > tcase.c {
						t.Errorf("mean overall ratio %.4f exceeds c=%v", meanRatio, tcase.c)
					}
				})
			}
		})
	}
}

// TestClosestPairsQualityRegression is the closest-pair analog: the
// i-th reported pair distance must be within factor c of the exact i-th
// closest pair distance on a seeded dataset.
func TestClosestPairsQualityRegression(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{
		Name: "cpq", N: 900, D: 64, Clusters: 30, SubspaceDim: 6, RCTarget: 2.5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ds.Points, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const k, c = 25, 1.5
	exact, err := lscan.ClosestPairs(ds.Points, k)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ix.SearchPairs(context.Background(), k, WithRatio(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != k {
		t.Fatalf("got %d pairs, want %d", len(pairs), k)
	}
	for i, p := range pairs {
		if p.Dist > c*exact[i].Dist+1e-9 {
			t.Errorf("rank %d: %v exceeds c×exact %v", i, p.Dist, exact[i].Dist)
		}
	}
}
