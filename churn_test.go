package pmlsh

// Churn-oracle regression tests: randomized interleavings of
// Insert/Delete/KNN/ClosestPairs against a map-based oracle of the
// live set, with recall and overall-ratio gates computed by brute
// force (internal/lscan, Fraction 1) over the survivors only. All
// seeds are fixed; sizes are -short-safe. The 40%-delete cases are the
// issue's acceptance criterion: after deleting a random 40% of a
// seeded dataset, KNN and ClosestPairs must still meet recall >= 0.8
// and ratio <= c against exact answers over the live set.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/lscan"
)

// churnOracle tracks the live set beside the index: id -> vector.
type churnOracle struct {
	live map[int32][]float64
	ids  []int32 // live ids, for O(1) random choice
}

func newChurnOracle() *churnOracle {
	return &churnOracle{live: map[int32][]float64{}}
}

func (o *churnOracle) add(id int32, p []float64) {
	o.live[id] = p
	o.ids = append(o.ids, id)
}

func (o *churnOracle) removeRandom(rng *rand.Rand) int32 {
	i := rng.Intn(len(o.ids))
	id := o.ids[i]
	o.ids[i] = o.ids[len(o.ids)-1]
	o.ids = o.ids[:len(o.ids)-1]
	delete(o.live, id)
	return id
}

// survivors materializes the live set for brute force: rows plus the
// id each row maps back to.
func (o *churnOracle) survivors() ([][]float64, []int32) {
	rows := make([][]float64, 0, len(o.ids))
	ids := make([]int32, 0, len(o.ids))
	for _, id := range o.ids {
		rows = append(rows, o.live[id])
		ids = append(ids, id)
	}
	return rows, ids
}

// checkKNNQuality runs queries against the index and exact brute force
// over the live set, asserting no dead ids, recall >= minRecall and
// per-rank ratio <= c.
func checkKNNQuality(t *testing.T, label string, ix *Index, o *churnOracle,
	queries [][]float64, k int, c, minRecall float64) {
	t.Helper()
	rows, ids := o.survivors()
	sc, err := lscan.New(rows, lscan.Config{Fraction: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k > len(rows) {
		k = len(rows)
	}
	var recallSum float64
	for qi, q := range queries {
		got, err := ix.Search(context.Background(), q, k, WithRatio(c))
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		if len(got) != k {
			t.Fatalf("%s query %d: %d results, want %d", label, qi, len(got), k)
		}
		exactRows, err := sc.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact := make(map[int32]bool, k)
		for _, r := range exactRows {
			exact[ids[r.ID]] = true
		}
		hits := 0
		for rank, nb := range got {
			if _, ok := o.live[nb.ID]; !ok {
				t.Fatalf("%s query %d: returned dead id %d", label, qi, nb.ID)
			}
			if exact[nb.ID] {
				hits++
			}
			// The (c,k) guarantee, rank by rank.
			if nb.Dist > c*exactRows[rank].Dist+1e-9 {
				t.Fatalf("%s query %d rank %d: dist %v exceeds c×exact %v",
					label, qi, rank, nb.Dist, exactRows[rank].Dist)
			}
		}
		recallSum += float64(hits) / float64(k)
	}
	if recall := recallSum / float64(len(queries)); recall < minRecall {
		t.Fatalf("%s: recall %.3f below %.2f", label, recall, minRecall)
	}
}

// checkCPQuality asserts closest pairs over the live set: no dead ids,
// and the i-th returned distance within factor c of the exact i-th
// closest surviving pair.
func checkCPQuality(t *testing.T, label string, ix *Index, o *churnOracle, k int, c float64) {
	t.Helper()
	rows, _ := o.survivors()
	exact, err := lscan.ClosestPairs(rows, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchPairs(context.Background(), k, WithRatio(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exact) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(exact))
	}
	for i, p := range got {
		if _, ok := o.live[p.I]; !ok {
			t.Fatalf("%s pair %d: dead id %d", label, i, p.I)
		}
		if _, ok := o.live[p.J]; !ok {
			t.Fatalf("%s pair %d: dead id %d", label, i, p.J)
		}
		if p.Dist > c*exact[i].Dist+1e-9 {
			t.Fatalf("%s pair %d: dist %v exceeds c×exact %v", label, i, p.Dist, exact[i].Dist)
		}
	}
}

// TestChurnDelete40Acceptance is the acceptance criterion: delete a
// random 40% of a seeded dataset, then gate KNN and ClosestPairs
// quality against brute force over the survivors.
func TestChurnDelete40Acceptance(t *testing.T) {
	const k, c = 10, 1.5
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pmtree", Config{Seed: 101}},
		{"pmtree-autocompact-off", Config{Seed: 101, AutoCompactFraction: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := testData(t, 1200)
			ix, err := Build(ds.Points, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := newChurnOracle()
			for i, p := range ds.Points {
				o.add(int32(i), p)
			}
			rng := rand.New(rand.NewSource(102))
			for i := 0; i < 480; i++ { // 40% of 1200
				if err := ix.Delete(o.removeRandom(rng)); err != nil {
					t.Fatal(err)
				}
			}
			if ix.LiveLen() != 720 {
				t.Fatalf("LiveLen=%d, want 720", ix.LiveLen())
			}
			queries := ds.Queries(25, 103)
			checkKNNQuality(t, tc.name, ix, o, queries, k, c, 0.8)
			checkCPQuality(t, tc.name, ix, o, 12, c)
			// Compaction must preserve the gates.
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			checkKNNQuality(t, tc.name+"/compacted", ix, o, queries, k, c, 0.8)
			checkCPQuality(t, tc.name+"/compacted", ix, o, 12, c)
		})
	}
}

// TestChurnRandomInterleavings is the table-driven oracle test: per
// case, a seeded random program of Insert/Delete ops with periodic
// KNN + ClosestPairs quality checks over the current live set.
func TestChurnRandomInterleavings(t *testing.T) {
	const c = 1.5
	cases := []struct {
		name    string
		n       int
		ops     int
		delProb float64
		k       int
		cfg     Config
		seed    int64
	}{
		{"balanced", 600, 400, 0.5, 8, Config{Seed: 110}, 111},
		{"delete-heavy", 700, 500, 0.75, 6, Config{Seed: 112}, 113},
		{"insert-heavy", 400, 500, 0.25, 8, Config{Seed: 114}, 115},
		{"delete-heavy-no-autocompact", 700, 400, 0.75, 6, Config{Seed: 116, AutoCompactFraction: -1}, 117},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := testData(t, tc.n)
			ix, err := Build(ds.Points, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := newChurnOracle()
			for i, p := range ds.Points {
				o.add(int32(i), p)
			}
			rng := rand.New(rand.NewSource(tc.seed))
			dim := ix.Dim()
			check := func(label string) {
				queries := make([][]float64, 8)
				for i := range queries {
					// Query near a random live point so ground truth is
					// non-degenerate.
					base := o.live[o.ids[rng.Intn(len(o.ids))]]
					q := make([]float64, dim)
					for j := range q {
						q[j] = base[j] + 0.1*rng.NormFloat64()
					}
					queries[i] = q
				}
				checkKNNQuality(t, tc.name+"/"+label, ix, o, queries, tc.k, c, 0.8)
				checkCPQuality(t, tc.name+"/"+label, ix, o, 6, c)
			}
			every := tc.ops / 4
			for op := 1; op <= tc.ops; op++ {
				if rng.Float64() < tc.delProb && len(o.ids) > tc.k+2 {
					if err := ix.Delete(o.removeRandom(rng)); err != nil {
						t.Fatal(err)
					}
				} else {
					base := ds.Points[rng.Intn(len(ds.Points))]
					p := make([]float64, dim)
					for j := range p {
						p[j] = base[j] + 0.05*rng.NormFloat64()
					}
					id, err := ix.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					o.add(id, p)
				}
				if ix.LiveLen() != len(o.ids) {
					t.Fatalf("op %d: LiveLen=%d oracle=%d", op, ix.LiveLen(), len(o.ids))
				}
				if op%every == 0 {
					check("mid")
				}
			}
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			check("final-compacted")
		})
	}
}
