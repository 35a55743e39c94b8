package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/pmtree"
	"repro/internal/vec"
)

// This file pins the streaming query engine to the restart-loop
// reference: the pre-enumerator Algorithm 2, which issued a fresh
// RangeSearch from the root every round and deduplicated re-returned
// candidates with per-query marks. The reference below is that code,
// retained verbatim (marks as a map); its range query is one fresh
// PM-tree traversal (what RangeSearch runs, which pmtree pins
// bit-identical to its retained recursive traversal), counted locally.

// refRangeSearch materializes one full range query as RangeSearch does —
// a fresh traversal, sorted by (distance, id) — and returns the metric
// evaluations it paid.
func refRangeSearch(ix *Index, q []float64, r float64) ([]Result, int64, error) {
	var e pmtree.RangeEnumerator
	if err := e.ResetTree(ix.tree, q); err != nil {
		return nil, 0, err
	}
	var out []Result
	e.Expand(r, func(id int32, d float64) { out = append(out, Result{ID: id, Dist: d}) })
	slices.SortFunc(out, compareDistID)
	return out, e.DistComps(), nil
}

// refFirstRound is where Algorithm 2 starts for n live points: the
// budget βn+k and the radius r_min sized to hold that many.
func refFirstRound(ix *Index, params Params, n, k int) (needed int, r float64) {
	needed = int(math.Ceil(params.Beta*float64(n))) + k
	r = distQuantile(ix.view.Load().distCDF, float64(needed)/float64(n)) * ix.cfg.RMinShrink
	if r <= 0 {
		r = smallestPositiveDistance(ix.view.Load().distCDF)
	}
	return needed, r
}

// refKNNWithStats is the restart-loop KNNWithStats.
func refKNNWithStats(ix *Index, q []float64, k int, c float64) ([]Result, QueryStats, error) {
	var st QueryStats
	if len(q) != ix.dim {
		return nil, st, fmt.Errorf("core: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, st, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.DeriveParams(c)
	if err != nil {
		return nil, st, err
	}
	n := ix.LiveLen()
	if n == 0 {
		return nil, st, nil
	}
	needed, r := refFirstRound(ix, params, n, k)

	qp := ix.proj.Project(q)
	seen := make(map[int32]bool)
	top := make([]Result, 0, k)
	bound := math.Inf(1)
	for {
		st.Rounds++
		projRes, paid, err := refRangeSearch(ix, qp, params.T*r)
		if err != nil {
			return nil, st, err
		}
		st.ProjectedDistComps += paid
		for _, pr := range projRes {
			if seen[pr.ID] {
				continue
			}
			seen[pr.ID] = true
			st.Verified++
			d2 := vec.SquaredL2Bounded(q, ix.point(pr.ID), bound)
			if len(top) < k || d2 < bound {
				top = insertCandidate(top, Result{ID: pr.ID, Dist: d2}, k)
				if len(top) == k {
					bound = top[k-1].Dist
				}
			}
			if st.Verified >= needed {
				break
			}
		}
		if st.Verified >= needed {
			break
		}
		if cr := c * r; kthWithin(top, k, cr*cr) {
			break
		}
		if st.Verified >= n {
			break
		}
		r *= c
	}
	st.FinalRadius = r
	for i := range top {
		top[i].Dist = math.Sqrt(top[i].Dist)
	}
	return top, st, nil
}

// refBallCover is the restart-era BallCover (one materialized range
// query); of two candidates at exactly the same distance it keeps the
// smaller id, the engine's one tie rule.
func refBallCover(ix *Index, q []float64, r, c float64) (*Result, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("core: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: radius must be positive, got %v", r)
	}
	params, err := ix.DeriveParams(c)
	if err != nil {
		return nil, err
	}
	n := ix.LiveLen()
	betaN := int(math.Ceil(params.Beta * float64(n)))
	projRes, _, err := refRangeSearch(ix, ix.proj.Project(q), params.T*r)
	if err != nil {
		return nil, err
	}
	best := Result{ID: -1, Dist: math.Inf(1)}
	for _, pr := range projRes {
		cand := Result{ID: pr.ID, Dist: vec.SquaredL2Bounded(q, ix.point(pr.ID), best.Dist)}
		if compareDistID(cand, best) < 0 {
			best = cand
		}
	}
	if best.ID >= 0 {
		best.Dist = math.Sqrt(best.Dist)
	}
	switch {
	case len(projRes) >= betaN+1:
		return &best, nil
	case best.ID >= 0 && best.Dist <= c*r:
		return &best, nil
	default:
		return nil, nil
	}
}

// randomStreamIndex builds an index under a randomized configuration —
// projected dimensionality, pivots (including the plain M-tree, s=0),
// node capacity, candidate fraction — over random
// clustered data, churned through the public mutation API half the
// time. Returns the index and live query sources.
func randomStreamIndex(tb testing.TB, rng *rand.Rand) (*Index, [][]float64) {
	tb.Helper()
	n := 200 + rng.Intn(400)
	dim := 8 + rng.Intn(24)
	clusters := 1 + rng.Intn(8)
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * 8
		}
	}
	data := make([][]float64, n)
	for i := range data {
		c := centers[rng.Intn(clusters)]
		p := make([]float64, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		data[i] = p
	}
	cfg := Config{
		M:                   []int{5, 10, 15}[rng.Intn(3)],
		NumPivots:           rng.Intn(6),
		ExplicitZeroPivots:  true,
		Capacity:            []int{0, 8, 32}[rng.Intn(3)],
		Seed:                rng.Int63(),
		DistSampleSize:      2000,
		AutoCompactFraction: -1,
	}
	if rng.Intn(2) == 0 {
		cfg.RMinShrink = 0.2 + 0.6*rng.Float64() // smaller r_min → more rounds
	}
	ix, err := Build(data, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if rng.Intn(2) == 0 { // churn half the time
		for i := 0; i < 40; i++ {
			if err := ix.Delete(int32(rng.Intn(n))); err != nil {
				// Already deleted: fine, try another.
				continue
			}
		}
		for i := 0; i < 25; i++ {
			base := data[rng.Intn(n)]
			p := make([]float64, dim)
			for j := range p {
				p[j] = base[j] + 0.1*rng.NormFloat64()
			}
			if _, err := ix.Insert(p); err != nil {
				tb.Fatal(err)
			}
			data = append(data, p)
		}
	}
	return ix, data
}

// TestStreamingMatchesRestartLoopReference is the randomized
// equivalence suite: across projected dimensionalities, pivot counts
// and churned indexes, the streaming engine's answers — ids, distances,
// and the per-query statistics the radius schedule exposes — are
// element-wise identical to the restart-loop reference.
func TestStreamingMatchesRestartLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		ix, data := randomStreamIndex(t, rng)
		for qi := 0; qi < 8; qi++ {
			q := data[rng.Intn(len(data))]
			k := []int{1, 5, 20}[qi%3]
			c := []float64{1.2, 1.5, 2.0}[qi%3]
			want, wantSt, err := refKNNWithStats(ix, q, k, c)
			if err != nil {
				t.Fatal(err)
			}
			var gotSt QueryStats
			got, err := ix.Search(context.Background(), q, k, SearchOptions{C: c, Stats: &gotSt})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d q%d: got %d results, want %d", trial, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d q%d: result %d = %+v, want %+v (rounds %d/%d)",
						trial, qi, i, got[i], want[i], gotSt.Rounds, wantSt.Rounds)
				}
			}
			if gotSt.Rounds != wantSt.Rounds || gotSt.Verified != wantSt.Verified ||
				gotSt.FinalRadius != wantSt.FinalRadius {
				t.Fatalf("trial %d q%d: stats %+v, want Rounds/Verified/FinalRadius of %+v",
					trial, qi, gotSt, wantSt)
			}
		}
	}
}

// TestBallCoverMatchesReference pins the streamed (r,c)-BC query to the
// materializing reference.
func TestBallCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 15; trial++ {
		ix, data := randomStreamIndex(t, rng)
		for qi := 0; qi < 6; qi++ {
			q := data[rng.Intn(len(data))]
			r := 0.1 + rng.Float64()*10
			c := []float64{1.2, 1.5, 2.0}[qi%3]
			want, err := refBallCover(ix, q, r, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.SearchBall(context.Background(), q, r, SearchOptions{C: c})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case (got == nil) != (want == nil):
				t.Fatalf("trial %d q%d: got %v, want %v", trial, qi, got, want)
			case got != nil && *got != *want:
				t.Fatalf("trial %d q%d: got %+v, want %+v", trial, qi, *got, *want)
			}
		}
	}
}

// TestProjectedDistCompsStrictlyDecrease is the bound on what radius
// enlargement costs in the projected space. A Search pays exactly one
// pass over the tree's rows, however many rounds follow and however
// small its first radius — this fixture's starts under the tree's switch
// radius, where SearchBall would traverse — where the restart loop
// re-traverses the whole tree, and recomputes the query's pivot
// distances, every round. (Round by round that is not always more: a few
// queries' later restart rounds together stay under one pass. Over the
// fixture's queries it is.) Answers and rounds are the restart loop's.
func TestProjectedDistCompsStrictlyDecrease(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	dim := 24
	data := make([][]float64, 900)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * 4
		}
	}
	// A small candidate fraction plus an aggressively shrunk first
	// radius forces the multi-round regime, starting under the switch.
	ix, err := Build(data, Config{Seed: 7, Beta: 0.005, RMinShrink: 0.25, DistSampleSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	params, err := ix.DeriveParams(1.5)
	if err != nil {
		t.Fatal(err)
	}
	_, r := refFirstRound(ix, params, len(data), 10)
	if sr := ix.Tree().ScanRadius(); params.T*r >= sr {
		t.Fatalf("first projected radius %v is not under the switch radius %v", params.T*r, sr)
	}
	rows := int64(ix.tree.Rows())
	var engine, restart int64
	for qi := 0; qi < 20; qi++ {
		q := data[rng.Intn(len(data))]
		var gotSt QueryStats
		got, err := ix.Search(context.Background(), q, 10, SearchOptions{C: 1.5, Stats: &gotSt})
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := refKNNWithStats(ix, q, 10, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt.Rounds < 2 || wantSt.Rounds != gotSt.Rounds {
			t.Fatalf("query %d: %d rounds, the restart loop %d; the config no longer forces radius enlargement", qi, gotSt.Rounds, wantSt.Rounds)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d = %+v, want %+v", qi, i, got[i], want[i])
			}
		}
		if gotSt.ProjectedDistComps != rows {
			t.Fatalf("query %d (%d rounds): paid %d projected distance computations, want the %d rows",
				qi, gotSt.Rounds, gotSt.ProjectedDistComps, rows)
		}
		engine += gotSt.ProjectedDistComps
		restart += wantSt.ProjectedDistComps
	}
	if engine >= restart {
		t.Fatalf("20 queries paid %d projected distance computations, the restart loop %d", engine, restart)
	}
}

// TestConcurrentQueriesOverPooledScratch hammers the pooled enumerator
// scratch from many goroutines (run under -race in CI): concurrent
// KNNWithStats, KNNBatch and BallCover on one index must never share
// per-query state.
func TestConcurrentQueriesOverPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ix, data := randomStreamIndex(t, rng)
	q0 := data[0]
	want, err := ix.Search(context.Background(), q0, 10, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float64, 16)
	for i := range batch {
		batch[i] = data[rng.Intn(len(data))]
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					got, err := ix.Search(context.Background(), q0, 10, SearchOptions{C: 1.5})
					if err == nil {
						for j := range got {
							if got[j] != want[j] {
								err = fmt.Errorf("concurrent KNN diverged at %d", j)
							}
						}
					}
					errs[g] = err
				case 1:
					if _, err := ix.SearchBatch(context.Background(), batch, 5, SearchOptions{C: 1.5}); err != nil {
						errs[g] = err
					}
				case 2:
					if _, err := ix.SearchBall(context.Background(), q0, 1.0, SearchOptions{C: 1.5}); err != nil {
						errs[g] = err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistCDFFrozenBetweenCompactions pins where the distance sample
// comes from: Build and Compact draw it, nothing in between touches it.
// Inserts leave the very slice in place — no mutation rewrites anything
// a running query reads — Compact publishes a fresh one, and an index
// carrying a 30% tail drawn after the sample still starts its queries
// at a radius within one enlargement round of the compacted index's.
func TestDistCDFFrozenBetweenCompactions(t *testing.T) {
	data := clusteredData(1400, 10, 6, 96)
	ix, err := Build(data[:1000], Config{Seed: 11, DistSampleSize: 2000, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := ix.view.Load().distCDF
	kept := append([]float64(nil), before...)
	for _, p := range data[1000:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	after := ix.view.Load().distCDF
	if &after[0] != &before[0] || len(after) != len(before) {
		t.Fatal("inserts replaced the distance sample")
	}
	for i := range kept {
		if after[i] != kept[i] {
			t.Fatalf("inserts rewrote the distance sample at %d: %v, was %v", i, after[i], kept[i])
		}
	}
	if f := ix.tailFraction(); f < 0.28 {
		t.Fatalf("tail fraction %v, want about 0.3", f)
	}

	rng := rand.New(rand.NewSource(97))
	queries := make([][]float64, 40)
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}
	rounds := func() []int {
		out := make([]int, len(queries))
		for i, q := range queries {
			var st QueryStats
			if _, err := ix.Search(context.Background(), q, 10, SearchOptions{Stats: &st}); err != nil {
				t.Fatal(err)
			}
			out[i] = st.Rounds
		}
		return out
	}
	tailed := rounds()
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	fresh := ix.view.Load().distCDF
	if &fresh[0] == &before[0] {
		t.Fatal("Compact kept the old distance sample")
	}
	if !sort.Float64sAreSorted(fresh) {
		t.Fatal("the resampled distance sample is not sorted")
	}
	for i, want := range rounds() {
		if d := tailed[i] - want; d < -1 || d > 1 {
			t.Fatalf("query %d: %d rounds on the 30%%-tail index, %d once compacted", i, tailed[i], want)
		}
	}
}
