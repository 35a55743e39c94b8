package minhash

import (
	"math"
	"math/rand"
	"testing"
)

// TestClaimJaccardBandCurve is the band-LSH S-curve of the default 16 ×
// 8 layout (package doc): two sets of Jaccard similarity s become
// candidates with probability P = 1 − (1 − s⁸)¹⁶, 0.061, 0.613 and
// 0.947 at s = 0.5, 0.7 and 0.8. The probability is over the hash
// functions, so every trial is a fresh pair of sets over tokens no other
// pair shares, all indexed under one seeded Config{}: the index holds
// every pair's first set, each second set is a query, and its pair
// counts as a candidate when the query returns its first set — at
// distance 1 − s, which no other indexed set can beat. At each s the
// observed share must pass the 99% Wilson score test against P:
// |share − P| ≤ z·√(P(1 − P)/n).
func TestClaimJaccardBandCurve(t *testing.T) {
	const (
		trials = 1000 // per similarity
		union  = 100  // tokens in A ∪ B
		z      = 2.576
	)
	rng := rand.New(rand.NewSource(41))
	x, err := New(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0.5, 0.7, 0.8} {
		common := int(s * union) // |A ∩ B|; A and B split the rest evenly
		own := (union - common) / 2
		queries := make([][]uint64, trials)
		first := make([]int32, trials)
		for i := range queries {
			tokens := make([]uint64, union)
			for j := range tokens {
				tokens[j] = rng.Uint64()
			}
			a := tokens[:common+own]
			b := append(append([]uint64(nil), tokens[:common]...), tokens[common+own:]...)
			if got := Jaccard(mustCanon(t, a), mustCanon(t, b)); got != s {
				t.Fatalf("s = %v: the pair has Jaccard %v", s, got)
			}
			if first[i], err = x.Insert(a); err != nil {
				t.Fatal(err)
			}
			queries[i] = b
		}
		hits := 0
		for i, q := range queries {
			nb, _, err := x.Search(q, 1, SearchOpt{})
			if err != nil {
				t.Fatal(err)
			}
			if len(nb) == 1 && nb[0].ID == first[i] {
				hits++
			}
		}
		want := 1 - math.Pow(1-math.Pow(s, 8), 16)
		share := float64(hits) / trials
		tol := z * math.Sqrt(want*(1-want)/trials)
		t.Logf("s = %.1f: %d of %d pairs are candidates (%.3f); 1 − (1 − s⁸)¹⁶ = %.3f ± %.3f", s, hits, trials, share, want, tol)
		if math.Abs(share-want) > tol {
			t.Errorf("s = %.1f: candidate share %.3f, the 16 × 8 curve predicts %.3f ± %.3f at 99%%", s, share, want, tol)
		}
	}
}

func mustCanon(t *testing.T, set []uint64) []uint64 {
	t.Helper()
	c, err := Canonicalize(set)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
