package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vec"
)

// TestRoundedPointsMatchBruteForce: a tree handed points no float32
// holds — a tail of inserts and dead rows in both parts among them, one
// coordinate beyond the float32 range — answers range queries as brute
// force over the points rounded as the package comment says, on the
// flat pass and on the traversal alike, round by round of one
// enumeration, every distance bit for bit SquaredL2 from the float64
// query to the rounded point. The traversal's filters are pivot, parent
// and ring distances of the rounded points, so they reject nothing
// within the radius; Points hands back the rounded live points. (The
// pair join over such points is
// TestForestPairEnumerator's: randomForest builds from unrounded points.)
func TestRoundedPointsMatchBruteForce(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n, dim := 300+rng.Intn(300), 3+rng.Intn(6)
		// A common offset puts the float32 spacing (~6e-5 at 1000) close
		// to the spread of the point cloud's fine structure.
		point := func() []float64 {
			p := make([]float64, dim)
			for j := range p {
				p[j] = 1000 + rng.NormFloat64()*0.01*float64(1+rng.Intn(100))
			}
			return p
		}
		data := make([][]float64, n)
		for i := range data {
			data[i] = point()
		}
		data[7][0] = 1e39 // clamped to math.MaxFloat32
		frozen := n * 2 / 3
		tr, err := Build(data[:frozen], nil, Config{NumPivots: trial % 5, Capacity: 4 + trial, PivotSeed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		for id := frozen; id < n; id++ {
			if err := tr.Insert(data[id], int32(id)); err != nil {
				t.Fatal(err)
			}
		}
		rounded := make([][]float64, n)
		for id, p := range data {
			rounded[id] = wide(appendRounded(nil, p))
			if id%6 == 1 {
				if err := tr.Delete(int32(id)); err != nil {
					t.Fatal(err)
				}
				rounded[id] = nil
			}
		}
		if rounded[7] != nil && rounded[7][0] != math.MaxFloat32 {
			t.Fatalf("1e39 was stored as %v", rounded[7][0])
		}
		seen := 0
		tr.Points(func(id int32, p []float64) {
			if seen++; rounded[id] == nil || !slices.Equal(p, rounded[id]) {
				t.Fatalf("trial %d: Points gave id %d as %v, stored as %v", trial, id, p, rounded[id])
			}
		})
		if seen != tr.Len() {
			t.Fatalf("trial %d: Points visited %d of %d live points", trial, seen, tr.Len())
		}
		brute := func(q []float64, lo, hi float64) []metrics.Neighbor {
			var out []metrics.Neighbor
			for id, p := range rounded {
				if p == nil {
					continue
				}
				if d := math.Sqrt(vec.SquaredL2(q, p)); d > lo && d <= hi {
					out = append(out, metrics.Neighbor{ID: int32(id), Dist: d})
				}
			}
			sortResults(out)
			return out
		}
		for qi := 0; qi < 8; qi++ {
			q := point()
			if qi%2 == 0 {
				q = rounded[frozen-1-2*qi] // a stored point: distance 0 to itself
				if q == nil {
					q = point()
				}
			}
			schedule := []float64{0, 0.01, 0.05, 0.2, 1, 1e40}
			for _, mode := range []string{"flat pass", "traversal"} {
				var en RangeEnumerator
				reset := en.Reset
				if mode == "traversal" {
					reset = en.ResetTree
				}
				if err := reset(tr, q); err != nil {
					t.Fatal(err)
				}
				prev := math.Inf(-1)
				for _, r := range schedule {
					var got []metrics.Neighbor
					en.Expand(r, func(id int32, d float64) { got = append(got, metrics.Neighbor{ID: id, Dist: d}) })
					sortResults(got)
					requireSameBits(t, fmt.Sprintf("trial %d query %d %s (%v, %v]", trial, qi, mode, prev, r), got, brute(q, prev, r))
					prev = r
				}
			}
			got, err := tr.RangeSearch(q, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("trial %d query %d RangeSearch", trial, qi), got, brute(q, math.Inf(-1), 0.05))
		}
	}
}
