package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/store"
	"repro/internal/vec"
)

// Claims of the paper, each pinned by one seeded test at the paper's
// m = 15 and at the default m = 24.

// wilsonLower is the lower end of the Wilson score interval for a
// binomial share of successes in trials, at z = 2.326 (one-sided 99%).
func wilsonLower(successes, trials int) float64 {
	const z = 2.326
	n, p := float64(trials), float64(successes)/float64(trials)
	return (p + z*z/(2*n) - z*math.Sqrt(p*(1-p)/n+z*z/(4*n*n))) / (1 + z*z/n)
}

// TestClaimTheorem1 is Theorem 1 of the paper: with probability at
// least 1/2 − α1 a query is answered c²-approximately under the βn + k
// budget. The probability is over the projection, so every draw is a
// fresh dataset, query and build seed, and the claim holds when the
// share of successful draws has a 99% binomial lower bound above
// 1/2 − 1/e. Two events are counted per draw, both in the index's
// internal L2 space (where a cosine index runs on unit vectors, so its
// chord distances are what c bounds):
//
//   - the proof's event E1 ∧ E2 at the nearest neighbour's distance r*:
//     o* projects within t·r* of the query (E1, probability 1 − α1 by
//     the choice of t), and fewer than βn points farther than c·r*
//     project inside that radius (E2, probability at least 1/2 by
//     Markov's inequality on Eq. 10's α2);
//   - the answer itself: Search at the default budget returns k points,
//     the i-th within c² of the exact i-th neighbour's distance.
//
// MIP is not covered: its reduction makes the c-guarantee heuristic.
func TestClaimTheorem1(t *testing.T) {
	const (
		c     = DefaultC
		k     = 10
		n     = 1200
		dim   = 64
		floor = 0.5 - 1/math.E
	)
	draws := 60
	if testing.Short() {
		draws = 30
	}
	for _, m := range []int{15, 24} {
		for _, kind := range []metric.Kind{metric.L2, metric.Cosine} {
			events, answers := 0, 0
			var fpShare float64
			for d := 0; d < draws; d++ {
				seed := int64(1000*m + 100*int(kind) + d)
				rng := rand.New(rand.NewSource(seed))
				data := clusteredData(n, dim, 4+rng.Intn(12), seed)
				// A build seed apart from the data's: a projection drawn from
				// the stream that drew the cluster centres is not random to them.
				ix, err := Build(data, Config{M: m, Seed: seed + 1<<20, Metric: kind})
				if err != nil {
					t.Fatal(err)
				}
				q := clusteredData(1, dim, 1, seed+1)[0]
				for j := range q {
					q[j] += data[rng.Intn(n)][j]
				}
				p, err := ix.DeriveParams(c)
				if err != nil {
					t.Fatal(err)
				}

				// The internal space: the rows as stored, the query reduced.
				rq, err := ix.reducePoint(q)
				if err != nil {
					t.Fatal(err)
				}
				rows := ix.data.Rows()
				exact := exactKNN(rows, rq, k)
				rstar := exact[0].Dist
				projQ := ix.Project(rq)
				projected := make([][]float64, n)
				ix.Tree().Points(func(id int32, pt []float64) { projected[id] = vec.Clone(pt) })
				e1 := vec.L2(projQ, projected[exact[0].ID]) <= p.T*rstar
				fp := 0
				for id, row := range rows {
					if vec.L2(rq, row) > c*rstar && vec.L2(projQ, projected[id]) <= p.T*rstar {
						fp++
					}
				}
				fpShare += float64(fp) / (p.Beta * n)
				if e1 && float64(fp) < p.Beta*n {
					events++
				}

				res, err := ix.Search(context.Background(), q, k, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ok := len(res) == k
				for i := 0; ok && i < k; i++ {
					ok = vec.L2(rq, rows[res[i].ID]) <= c*c*exact[i].Dist*(1+1e-12)
				}
				if ok {
					answers++
				}
			}
			label := fmt.Sprintf("m=%d %v", m, kind)
			t.Logf("%s: E1∧E2 in %d/%d draws (99%% lower bound %.3f), c²-approximate answers in %d/%d (%.3f); false positives average %.3f of βn",
				label, events, draws, wilsonLower(events, draws), answers, draws, wilsonLower(answers, draws), fpShare/float64(draws))
			if lb := wilsonLower(events, draws); lb <= floor {
				t.Errorf("%s: Theorem 1's event E1∧E2 held in %d of %d draws, lower bound %.3f, not above 1/2 − 1/e = %.3f", label, events, draws, lb, floor)
			}
			if lb := wilsonLower(answers, draws); lb <= floor {
				t.Errorf("%s: %d of %d answers were c²-approximate, lower bound %.3f, not above 1/2 − 1/e = %.3f", label, answers, draws, lb, floor)
			}
		}
	}
}

// TestClaimOneOrTwoRangeQueries is the paper's observation that "only
// one or two range queries are required" (Section 6): at the default
// budget, at least 99% of queries end after at most two rounds, on
// clustered rows of the serve-churn workload's shape (n = 5 000,
// d = 64).
func TestClaimOneOrTwoRangeQueries(t *testing.T) {
	const n, dim, k = 5000, 64, 50
	queries := 400
	if testing.Short() {
		queries = 200
	}
	data := clusteredData(n, dim, 20, 41)
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{15, 24} {
		ix, err := Build(data, Config{M: m, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var hist [4]int
		for i := 0; i < queries; i++ {
			q := vec.Clone(data[rng.Intn(n)])
			for j := range q {
				q[j] += rng.NormFloat64()
			}
			var st QueryStats
			if _, err := ix.Search(context.Background(), q, k, SearchOptions{Stats: &st}); err != nil {
				t.Fatal(err)
			}
			hist[min(st.Rounds, 3)]++
		}
		t.Logf("m=%d: %d queries in one round, %d in two, %d in more", m, hist[1], hist[2], hist[3])
		if within := hist[1] + hist[2]; float64(within) < 0.99*float64(queries) {
			t.Errorf("m=%d: %d of %d queries took one or two range queries, under 99%%", m, within, queries)
		}
	}
}

// TestClaimSampleBound is the error bound DistSampleSize's default is
// chosen by: by the Dvoretzky–Kiefer–Wolfowitz inequality (Massart's
// constant), the empirical CDF of N pairs drawn uniformly is within
// ε = √(ln(2/δ)/2N) of the true distance distribution F everywhere with
// probability at least 1 − δ, and DistSampleSize's doc states
// ε ≈ 0.023 at δ = 0.01 for the default N. On 1 000 clustered rows F is
// known exactly — the distances of all 499 500 pairs — so every draw, one
// build seed each, measures the default sample's sup distance from it,
// and the share of draws within that ε must pass the 99% Wilson score
// test against 1 − δ: share ≥ (1 − δ) − z·√(δ(1 − δ)/draws).
func TestClaimSampleBound(t *testing.T) {
	const (
		n     = 1000
		dim   = 32
		eps   = 0.023
		delta = 0.01
		z     = 2.326
	)
	draws := 400
	if testing.Short() {
		draws = 200
	}
	rows := clusteredData(n, dim, 10, 51)
	exact := make([]float64, 0, n*(n-1)/2)
	for i := range rows {
		for j := i + 1; j < n; j++ {
			exact = append(exact, vec.L2(rows[i], rows[j]))
		}
	}
	slices.Sort(exact)
	s, err := store.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	cfg.fillDefaults(dim)
	within, worst := 0, 0.0
	for d := 0; d < draws; d++ {
		cfg.Seed = int64(d)
		sample := sampleDistanceDistribution(s, cfg)
		if len(sample) != cfg.DistSampleSize {
			t.Fatalf("a sample of %d pairs, want %d", len(sample), cfg.DistSampleSize)
		}
		sup := supDistance(sample, exact)
		worst = max(worst, sup)
		if sup <= eps {
			within++
		}
	}
	share := float64(within) / float64(draws)
	floor := 1 - delta - z*math.Sqrt(delta*(1-delta)/float64(draws))
	t.Logf("N = %d: sup |F_N − F| ≤ ε = %.4f in %d of %d draws (%.3f, floor %.3f); the worst draw %.4f",
		cfg.DistSampleSize, eps, within, draws, share, floor, worst)
	if share < floor {
		t.Errorf("N = %d: the sample's CDF was within ε = %.4f of the exact one in %d of %d draws, under the 99%% floor %.3f for 1 − δ = %.2f",
			cfg.DistSampleSize, eps, within, draws, floor, 1-delta)
	}
}

// supDistance is the Kolmogorov–Smirnov distance between the empirical
// CDFs of two sorted samples: the largest gap at any value, measured
// just below and at each.
func supDistance(a, b []float64) float64 {
	sup := 0.0
	for i, j := 0, 0; i < len(a) || j < len(b); {
		x := math.Inf(1)
		if i < len(a) {
			x = a[i]
		}
		if j < len(b) {
			x = min(x, b[j])
		}
		gap := func() float64 { return math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b))) }
		sup = max(sup, gap())
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		sup = max(sup, gap())
	}
	return sup
}
