package pmtree

// Property-based tests (testing/quick): the tree is an EXACT metric
// index, so however it came to hold its points — bulk loaded in one
// shot, or bulk loaded over half the data with the rest inserted into
// the tail one at a time — the answers must be identical. Randomized
// configs sweep pivot counts and capacities.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func quickPoints(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		// Sprinkle duplicates so ties exist.
		if i > 0 && rng.Intn(10) == 0 {
			copy(p, out[rng.Intn(i)])
		}
		out[i] = p
	}
	return out
}

func TestQuickBuildVsIncremental(t *testing.T) {
	f := func(seed int64, pivSel, capSel, dimSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			NumPivots: int(pivSel % 7),    // 0..6 (0 = plain M-tree)
			Capacity:  4 + int(capSel%13), // 4..16
			PivotSeed: seed,
		}
		dim := 2 + int(dimSel%8) // 2..9
		n := 120
		data := quickPoints(rng, n, dim)

		full, err := Build(data, nil, cfg)
		if err != nil {
			t.Logf("full build: %v", err)
			return false
		}
		half, err := Build(data[:n/2], nil, cfg)
		if err != nil {
			t.Logf("half build: %v", err)
			return false
		}
		for i := n / 2; i < n; i++ {
			if err := half.Insert(data[i], int32(i)); err != nil {
				t.Logf("insert %d: %v", i, err)
				return false
			}
		}
		if full.Len() != half.Len() {
			return false
		}

		for qi := 0; qi < 4; qi++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			// RangeSearch returns identical id sets (fixed radius).
			r := 0.5 + rng.Float64()*2
			ra, err := full.RangeSearch(q, r)
			if err != nil {
				return false
			}
			rb, err := half.RangeSearch(q, r)
			if err != nil {
				return false
			}
			if len(ra) != len(rb) {
				t.Logf("range sizes differ: %d vs %d", len(ra), len(rb))
				return false
			}
			for i := range ra {
				// Both are sorted by (Dist, ID), so equality is positional.
				if ra[i].ID != rb[i].ID || math.Abs(ra[i].Dist-rb[i].Dist) > 1e-9 {
					t.Logf("range mismatch at %d: %+v vs %+v", i, ra[i], rb[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPairEnumeratorMatchesBrute drives the self-join with random
// configs: the enumerated order must match brute force.
func TestQuickPairEnumeratorMatchesBrute(t *testing.T) {
	f := func(seed int64, pivSel, capSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			NumPivots: int(pivSel % 6),
			Capacity:  4 + int(capSel%13),
			PivotSeed: seed + 1,
		}
		data := quickPoints(rng, 60, 4)
		tree, err := Build(data, nil, cfg)
		if err != nil {
			return false
		}
		want := brutePairs(data)
		en := NewPairEnumerator(tree)
		for i := range want {
			c, ok := en.Next()
			if !ok {
				t.Logf("enumerator ended early at %d of %d", i, len(want))
				return false
			}
			if math.Abs(c.Dist-want[i].Dist) > 1e-9 {
				t.Logf("rank %d: %v vs brute %v", i, c.Dist, want[i].Dist)
				return false
			}
		}
		if _, ok := en.Next(); ok {
			t.Log("enumerator produced extra pairs")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
