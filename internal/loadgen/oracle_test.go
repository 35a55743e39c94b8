package loadgen

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lscan"
	"repro/internal/metric"
)

// The recall oracle scores the serve, crash, metric and soak runs, so
// it is held to an exact reference of its own: a plain id → vector
// mirror driven through the same seeded insert/delete interleaving,
// ranked by lscan at Fraction 1 under L2 and by a sort over nativeDist
// under cosine and inner product.

func randVec(rng *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

// exactTopK ranks the mirror's live points by brute force and returns
// the ids of the k nearest (all of them when k exceeds the live count).
func exactTopK(t *testing.T, mirror map[int32][]float64, q []float64, k int, m metric.Kind) map[int32]bool {
	t.Helper()
	ids := make([]int32, 0, len(mirror))
	for id := range mirror {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	k = min(k, len(ids))
	out := make(map[int32]bool, k)
	if k == 0 {
		return out
	}
	if m == metric.L2 {
		rows := make([][]float64, len(ids))
		for i, id := range ids {
			rows[i] = mirror[id]
		}
		scan, err := lscan.New(rows, lscan.Config{Fraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := scan.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			out[ids[r.ID]] = true
		}
		return out
	}
	sort.SliceStable(ids, func(i, j int) bool {
		return nativeDist(m, q, mirror[ids[i]]) < nativeDist(m, q, mirror[ids[j]])
	})
	for _, id := range ids[:k] {
		out[id] = true
	}
	return out
}

func TestOracleMatchesBruteForce(t *testing.T) {
	const dim, seeded = 8, 60
	for _, m := range []metric.Kind{metric.L2, metric.Cosine, metric.InnerProduct} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31 + int64(m)))
			data := make([][]float64, seeded)
			mirror := make(map[int32][]float64, seeded)
			for i := range data {
				data[i] = randVec(rng, dim)
				mirror[int32(i)] = data[i]
			}
			o := newOracle(data)
			next := int32(seeded)

			check := func(step int) {
				t.Helper()
				if o.len() != len(mirror) {
					t.Fatalf("step %d: oracle holds %d points, mirror %d", step, o.len(), len(mirror))
				}
				q := randVec(rng, dim)
				for _, k := range []int{1, 5, len(mirror), len(mirror) + 7} {
					got, eff := o.topK(q, k, m)
					want := exactTopK(t, mirror, q, k, m)
					if eff != len(want) || len(got) != len(want) {
						t.Fatalf("step %d k=%d: effective k %d, %d ids; want %d", step, k, eff, len(got), len(want))
					}
					for id := range want {
						if !got[id] {
							t.Fatalf("step %d k=%d: oracle top-k misses id %d", step, k, id)
						}
					}
				}
			}

			check(0)
			for step := 1; step <= 300; step++ {
				// Delete-leaning, so the live set shrinks through the
				// sizes where k > live starts to bite.
				if rng.Float64() < 0.55 && o.len() > 0 {
					id, p, ok := o.takeRandom(rng)
					want, live := mirror[id]
					if !ok || !live || &p[0] != &want[0] {
						t.Fatalf("step %d: takeRandom returned id %d (ok=%v), live in mirror: %v", step, id, ok, live)
					}
					delete(mirror, id)
				} else {
					p := randVec(rng, dim)
					o.add(next, p)
					mirror[next] = p
					next++
				}
				if base := o.randomBase(rng); len(mirror) > 0 && len(base) != dim {
					t.Fatalf("step %d: randomBase returned %v over %d live points", step, base, len(mirror))
				}
				if step%20 == 0 {
					check(step)
				}
			}

			// Emptied: every accessor answers "nothing" instead of
			// indexing an empty slice.
			for o.len() > 0 {
				id, _, _ := o.takeRandom(rng)
				delete(mirror, id)
			}
			if len(mirror) != 0 {
				t.Fatalf("oracle drained with %d points left in the mirror", len(mirror))
			}
			if _, _, ok := o.takeRandom(rng); ok {
				t.Fatal("takeRandom on an emptied oracle returned a point")
			}
			if base := o.randomBase(rng); base != nil {
				t.Fatalf("randomBase on an emptied oracle returned %v", base)
			}
			if got, eff := o.topK(randVec(rng, dim), 5, m); eff != 0 || len(got) != 0 {
				t.Fatalf("topK on an emptied oracle: effective k %d, ids %v", eff, got)
			}
			o.add(next, randVec(rng, dim))
			if got, eff := o.topK(randVec(rng, dim), 5, m); eff != 1 || !got[next] {
				t.Fatalf("topK after refilling one point: effective k %d, ids %v", eff, got)
			}
		})
	}
}
