package bench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lscan"
)

// TestClaimClosestPairs is the closest-pair claim of the journal version
// (arXiv:2107.05537): with constant probability the i-th pair SearchPairs
// returns is within factor c of the exact i-th closest pair's distance.
// The probability is over the projection, so every draw is a fresh
// CPWorkload — a clustered corpus with a few planted near-copies, fewer
// than k, so the top k mixes planted and organic pairs — and a fresh
// build seed, at the default budget. A draw succeeds when every rank is
// within c of brute force (lscan.ClosestPairs), and the share of
// successes must have a 99% Wilson lower bound above 1/2 − 1/e, as
// Theorem 1's must. The pair join takes its first radius from the index's
// F(x) sample (its low tail), which is what this row gates.
func TestClaimClosestPairs(t *testing.T) {
	const (
		c     = core.DefaultC
		k     = 20
		n     = 1500
		dups  = 5
		floor = 0.5 - 1/math.E
	)
	draws := 30
	if testing.Short() {
		draws = 15
	}
	for _, m := range []int{paperM, core.DefaultM} {
		good := 0
		var ratioSum float64
		for d := 0; d < draws; d++ {
			seed := int64(5000*m + d)
			ds, err := dataset.Generate(dataset.Spec{Name: "cp", N: n, D: 64, SubspaceDim: 8, RCTarget: 2.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewCPWorkload(ds, dups, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.Build(w.Points, core.Config{M: m, Seed: seed + 1<<20})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.SearchPairs(context.Background(), k, core.SearchOptions{C: c})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := lscan.ClosestPairs(w.Points, k)
			if err != nil {
				t.Fatal(err)
			}
			ok := len(got) == k
			for i := 0; ok && i < k; i++ {
				ok = got[i].Dist <= c*exact[i].Dist*(1+1e-12)
			}
			if ok {
				good++
			}
			ratioSum += cpRatio(got, exact)
		}
		label := fmt.Sprintf("m=%d", m)
		lb := wilsonLower(good, draws)
		t.Logf("%s: top-%d pairs within c = %.1f of brute force in %d/%d draws (99%% lower bound %.3f); mean top-%d ratio %.4f",
			label, k, c, good, draws, lb, k, ratioSum/float64(draws))
		if lb <= floor {
			t.Errorf("%s: %d of %d draws returned c-approximate closest pairs, lower bound %.3f, not above 1/2 − 1/e = %.3f", label, good, draws, lb, floor)
		}
	}
}

// wilsonLower is the lower end of the Wilson score interval for a
// binomial share of successes in trials, at z = 2.326 (one-sided 99%).
func wilsonLower(successes, trials int) float64 {
	const z = 2.326
	n, p := float64(trials), float64(successes)/float64(trials)
	return (p + z*z/(2*n) - z*math.Sqrt(p*(1-p)/n+z*z/(4*n*n))) / (1 + z*z/n)
}
