package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/vec"
)

// This file tests the unified request API at the engine level: the
// per-query options (filter, budget, α1) must behave as documented,
// cancellation must stop work, and per-query statistics must stay
// exact under concurrency.

// filteredBruteKNN is the filtered exact oracle: the k nearest live
// admitted points.
func filteredBruteKNN(ix *Index, q []float64, k int, admit func(int32) bool) []Result {
	var out []Result
	for id := int32(0); int(id) < ix.Len(); id++ {
		if !ix.IsLive(id) || !admit(id) {
			continue
		}
		out = append(out, Result{ID: id, Dist: vec.L2(q, ix.point(id))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestSearchFilterAgainstOracle checks filtered search at ~50%
// selectivity: every returned id is admitted, recall against the
// filtered brute force stays high, and the engine performs fewer exact
// verifications than the unfiltered query it replaces (the filter is
// inside the loop, not a post-pass).
func TestSearchFilterAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(543))
	admit := func(id int32) bool { return id%2 == 0 }
	var recallSum float64
	var queries, filteredVerified, unfilteredVerified int
	for trial := 0; trial < 10; trial++ {
		ix, data := randomStreamIndex(t, rng)
		for qi := 0; qi < 5; qi++ {
			q := data[rng.Intn(len(data))]
			k := 5 + rng.Intn(10)
			var fst, ust QueryStats
			got, err := ix.Search(context.Background(), q, k,
				SearchOptions{C: 1.5, Filter: admit, Stats: &fst})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Search(context.Background(), q, k,
				SearchOptions{C: 1.5, Stats: &ust}); err != nil {
				t.Fatal(err)
			}
			for _, nb := range got {
				if !admit(nb.ID) {
					t.Fatalf("trial %d q%d: filtered-out id %d returned", trial, qi, nb.ID)
				}
			}
			exact := filteredBruteKNN(ix, q, k, admit)
			if len(exact) == 0 {
				continue
			}
			exactIDs := make(map[int32]bool, len(exact))
			for _, nb := range exact {
				exactIDs[nb.ID] = true
			}
			hits := 0
			for _, nb := range got {
				if exactIDs[nb.ID] {
					hits++
				}
			}
			recallSum += float64(hits) / float64(len(exact))
			queries++
			filteredVerified += fst.Verified
			unfilteredVerified += ust.Verified
		}
	}
	if queries == 0 {
		t.Fatal("no filtered queries ran")
	}
	if recall := recallSum / float64(queries); recall < 0.8 {
		t.Fatalf("filtered recall %.3f < 0.8", recall)
	}
	// The filtered engine verifies only admitted candidates, so at 50%
	// selectivity it must compute clearly fewer exact distances than
	// the unfiltered query whose results a caller would post-filter.
	if filteredVerified >= unfilteredVerified {
		t.Fatalf("filtered search verified %d >= unfiltered %d", filteredVerified, unfilteredVerified)
	}
}

// TestSearchFilterExhaustsCorpus: a filter that admits almost nothing
// must terminate (by exhausting the enumeration) and return exactly
// the admitted points.
func TestSearchFilterExhaustsCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(544))
	data := make([][]float64, 300)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	ix, err := Build(data, Config{Seed: 9, DistSampleSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(id int32) bool { return id == 7 || id == 211 }
	got, err := ix.Search(context.Background(), data[0], 10, SearchOptions{Filter: admit})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want the 2 admitted points", len(got))
	}
	for _, nb := range got {
		if !admit(nb.ID) {
			t.Fatalf("returned filtered-out id %d", nb.ID)
		}
	}
	// Nothing admitted at all: empty result, no hang.
	got, err = ix.Search(context.Background(), data[0], 10,
		SearchOptions{Filter: func(int32) bool { return false }})
	if err != nil || len(got) != 0 {
		t.Fatalf("admit-nothing filter: got %v, %v", got, err)
	}
}

// TestSearchPairsFilter checks the pair filter: both ids must be
// admitted, filtered pairs cost no verification, and the query
// terminates even when fewer than k admitted pairs exist.
func TestSearchPairsFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(545))
	data := make([][]float64, 120)
	for i := range data {
		if i < 6 {
			// The admitted points form a tight cluster, so the admitted
			// pairs are among the closest in the collection and the
			// admitted-population early-out ends the query long before
			// the self-join is exhausted.
			data[i] = []float64{rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01}
			continue
		}
		data[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	ix, err := Build(data, Config{Seed: 4, DistSampleSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(id int32) bool { return id < 6 }
	var st CPStats
	got, err := ix.SearchPairs(context.Background(), 40,
		SearchOptions{C: 1.5, Filter: admit, PairStats: &st})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly C(6,2) = 15 admitted pairs exist: k is clamped to the
	// admitted population, the query must not hang waiting for 40, and
	// verifying the 15th admitted pair ends it — no need to enumerate
	// all 7140 pairs of the collection.
	if len(got) != 15 {
		t.Fatalf("got %d pairs, want all 15 admitted ones", len(got))
	}
	for _, p := range got {
		if !admit(p.I) || !admit(p.J) {
			t.Fatalf("pair (%d,%d) not fully admitted", p.I, p.J)
		}
	}
	if st.Verified != 15 {
		t.Fatalf("verified %d pairs, want exactly the 15 admitted", st.Verified)
	}
	if maxPairs := 120 * 119 / 2; st.Enumerated >= maxPairs {
		t.Fatalf("enumerated %d pairs — the admitted-population early-out did not fire", st.Enumerated)
	}
	// Admitting fewer than two ids is trivially empty, not a hang.
	if res, err := ix.SearchPairs(context.Background(), 5,
		SearchOptions{Filter: func(id int32) bool { return id == 3 }, PairStats: &st}); err != nil || len(res) != 0 {
		t.Fatalf("single-admitted-id SearchPairs: %v, %v", res, err)
	}
	// The exact filtered oracle: the admitted points' pairwise distances.
	var exact []Pair
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			exact = append(exact, Pair{I: i, J: j, Dist: vec.L2(data[i], data[j])})
		}
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].Dist < exact[j].Dist })
	if len(got) > 0 && len(exact) > 0 {
		// The closest admitted pair must be found within factor c.
		if got[0].Dist > 1.5*exact[0].Dist+1e-12 {
			t.Fatalf("closest admitted pair %.4f exceeds c times exact %.4f", got[0].Dist, exact[0].Dist)
		}
	}
}

// TestSearchCancellation: a canceled context stops every entry point
// with ctx.Err(), and the index stays fully usable afterwards.
func TestSearchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(546))
	ix, data := randomStreamIndex(t, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := data[0]

	if _, err := ix.Search(ctx, q, 5, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search under canceled ctx: %v", err)
	}
	if _, err := ix.SearchBatch(ctx, [][]float64{q, q}, 5, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch under canceled ctx: %v", err)
	}
	if _, err := ix.SearchBall(ctx, q, 1, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBall under canceled ctx: %v", err)
	}
	if _, err := ix.SearchPairs(ctx, 5, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchPairs under canceled ctx: %v", err)
	}

	// The index answers normally afterwards (pooled scratch not wedged).
	if _, err := ix.Search(context.Background(), q, 5, SearchOptions{}); err != nil {
		t.Fatalf("Search after cancellation: %v", err)
	}
	if _, err := ix.SearchBatch(context.Background(), [][]float64{q}, 5, SearchOptions{}); err != nil {
		t.Fatalf("SearchBatch after cancellation: %v", err)
	}
}

// TestSearchBudgetOption: a small budget caps Verified; a generous one
// reproduces the derived behavior.
func TestSearchBudgetOption(t *testing.T) {
	rng := rand.New(rand.NewSource(547))
	ix, data := randomStreamIndex(t, rng)
	q := data[0]
	var def, small QueryStats
	if _, err := ix.Search(context.Background(), q, 10, SearchOptions{Stats: &def}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(context.Background(), q, 10, SearchOptions{Budget: 3, Stats: &small}); err != nil {
		t.Fatal(err)
	}
	if small.Verified > 3 {
		t.Fatalf("budget 3 verified %d candidates", small.Verified)
	}
	if def.Verified <= 3 {
		t.Skipf("derived budget already tiny (%d), nothing to compare", def.Verified)
	}
}

// TestSearchAlpha1Option: a smaller per-query α1 widens the projected
// radius multiplier T, so the engine inspects at least as many
// candidates; the build-time value stays the default.
func TestSearchAlpha1Option(t *testing.T) {
	rng := rand.New(rand.NewSource(548))
	dim := 16
	data := make([][]float64, 600)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * 4
		}
	}
	ix, err := Build(data, Config{Seed: 3, DistSampleSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	pNarrow, err := ix.deriveParamsOpt(1.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	pDefault, err := ix.deriveParamsOpt(1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	pWide, err := ix.deriveParamsOpt(1.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !(pNarrow.T < pDefault.T && pDefault.T < pWide.T) {
		t.Fatalf("T not monotone in α1: %.4f, %.4f, %.4f", pNarrow.T, pDefault.T, pWide.T)
	}
	if pDefault.T != ix.t {
		t.Fatalf("α1 = 0 must reuse the cached build-time T (%v != %v)", pDefault.T, ix.t)
	}
	// β is calibrated to depend only on c.
	if math.Abs(pNarrow.Beta-pWide.Beta) > 1e-12 || math.Abs(pNarrow.Beta-pDefault.Beta) > 1e-12 {
		t.Fatalf("β should not depend on α1: %v, %v, %v", pNarrow.Beta, pDefault.Beta, pWide.Beta)
	}
	// Invalid values are rejected.
	if _, err := ix.Search(context.Background(), data[0], 5, SearchOptions{Alpha1: 1.5}); err == nil {
		t.Fatal("Alpha1 >= 1 should be rejected")
	}
	if _, err := ix.Search(context.Background(), data[0], 5, SearchOptions{Alpha1: -0.2}); err == nil {
		t.Fatal("negative Alpha1 should be rejected")
	}
	// And a valid per-query α1 changes the query's actual work.
	var wide, narrow QueryStats
	if _, err := ix.Search(context.Background(), data[0], 5, SearchOptions{Alpha1: 0.01, Stats: &wide}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(context.Background(), data[0], 5, SearchOptions{Alpha1: 0.9, Stats: &narrow}); err != nil {
		t.Fatal(err)
	}
	if wide.ProjectedDistComps < narrow.ProjectedDistComps {
		t.Fatalf("wider CI did less projected work (%d < %d)",
			wide.ProjectedDistComps, narrow.ProjectedDistComps)
	}
}

// TestSearchBallDefaultsNonPositiveRatio: the options surface treats a
// non-positive ratio as unset and falls back to DefaultC.
func TestSearchBallDefaultsNonPositiveRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(551))
	ix, data := randomStreamIndex(t, rng)
	for _, c := range []float64{0, -1.5} {
		want, err := ix.SearchBall(context.Background(), data[0], 1, SearchOptions{C: DefaultC})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.SearchBall(context.Background(), data[0], 1, SearchOptions{C: c})
		if err != nil {
			t.Fatalf("SearchBall with C = %v must default, got %v", c, err)
		}
		if (got == nil) != (want == nil) || (got != nil && *got != *want) {
			t.Fatalf("SearchBall with C = %v answered %v, DefaultC answers %v", c, got, want)
		}
	}
}

// TestBatchStatsValidation: a short BatchStats slice is rejected.
func TestBatchStatsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(549))
	ix, data := randomStreamIndex(t, rng)
	qs := [][]float64{data[0], data[1], data[2]}
	st := make([]QueryStats, 2)
	if _, err := ix.SearchBatch(context.Background(), qs, 5, SearchOptions{BatchStats: st}); err == nil {
		t.Fatal("short BatchStats slice should be rejected")
	}
}

// TestSearchBatchContract: every backend and shard count answers a
// batch through the one claim loop (searchBatch), so all four agree on
// its contract — a BatchStats slice longer than the batch is accepted
// and filled for the batch's prefix, a failing query yields a nil
// result slice and "core: batch query i: …", a cancelled context
// yields ctx.Err(). (Before PR 19 a 1-shard Jaccard batch rejected the
// over-long slice and returned the query error unwrapped.)
func TestSearchBatchContract(t *testing.T) {
	ds := cpDataset(t, 300, 83)
	sets := metricTestSets(20, 4, 24, 83)
	var setQs [][]float64
	for _, s := range sets[:5] {
		setQs = append(setQs, tokensAsFloats(s))
	}
	for _, shards := range []int{1, 3} {
		l2, err := BuildEngine(ds.Points, Config{Seed: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		jac, err := BuildSetsEngine(sets, Config{Seed: 3, Metric: metric.Jaccard, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			e    *Engine
			qs   [][]float64
			bad  []float64 // a query the backend rejects
		}{
			{"l2", l2, ds.Points[:5], []float64{1, 2, 3}},
			{"jaccard", jac, setQs, []float64{1.5}},
		} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				ctx := context.Background()
				stats := make([]QueryStats, len(tc.qs)+3)
				res, err := tc.e.SearchBatch(ctx, tc.qs, 3, SearchOptions{BatchStats: stats})
				if err != nil || len(res) != len(tc.qs) {
					t.Fatalf("over-long BatchStats: %d results, err %v", len(res), err)
				}
				for i, st := range stats {
					if filled := st.Rounds > 0; filled != (i < len(tc.qs)) {
						t.Errorf("BatchStats[%d] = %+v for a batch of %d", i, st, len(tc.qs))
					}
				}

				qs := append([][]float64(nil), tc.qs...)
				qs[2] = tc.bad
				_, solo := tc.e.Search(ctx, tc.bad, 3, SearchOptions{})
				res, err = tc.e.SearchBatch(ctx, qs, 3, SearchOptions{})
				if res != nil || solo == nil || err == nil || err.Error() != "core: batch query 2: "+solo.Error() {
					t.Errorf("invalid query 2: results %v, err %v; want nil and the wrapped %v", res, err, solo)
				}

				cctx, cancel := context.WithCancel(ctx)
				cancel()
				res, err = tc.e.SearchBatch(cctx, tc.qs, 3, SearchOptions{})
				if res != nil || !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled batch: results %v, err %v", res, err)
				}
			})
		}
	}
}

// TestStatsExactUnderConcurrentBatches is the acceptance assertion for
// exact per-query statistics: per-query stats collected while many
// batches hammer the index concurrently must equal the serial values —
// a tree-wide-delta implementation would mix the in-flight queries'
// work into each other's counters.
func TestStatsExactUnderConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(550))
	dim := 12
	data := make([][]float64, 1500)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * 5
		}
	}
	ix, err := Build(data, Config{Seed: 6, DistSampleSize: 3000})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, 24)
	for i := range qs {
		qs[i] = data[rng.Intn(len(data))]
	}
	serial := make([]QueryStats, len(qs))
	for i, q := range qs {
		if _, err := ix.Search(context.Background(), q, 10, SearchOptions{Stats: &serial[i]}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				stats := make([]QueryStats, len(qs))
				if _, err := ix.SearchBatch(context.Background(), qs, 10,
					SearchOptions{BatchStats: stats}); err != nil {
					errCh <- err
					return
				}
				for i := range stats {
					if stats[i] != serial[i] {
						errCh <- fmt.Errorf("goroutine %d iter %d: query %d stats %+v, want %+v",
							g, iter, i, stats[i], serial[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestSearchAllocatesOnlyItsAnswer pins the steady state the pooled
// scratch exists for: a warmed Search — selecting rounds, block
// verification, with and without a filter — allocates its k-result
// slice and nothing else.
func TestSearchAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	data := clusteredData(3000, 24, 6, 71)
	ix, err := Build(data, Config{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	even := func(id int32) bool { return id%2 == 0 }
	for _, o := range []SearchOptions{{}, {Filter: even}} {
		qi := 0
		search := func() {
			qi++
			if _, err := ix.Search(ctx, data[qi%len(data)], 50, o); err != nil {
				t.Fatal(err)
			}
		}
		search() // sizes the pooled buffers
		if allocs := testing.AllocsPerRun(200, search); allocs != 1 {
			t.Fatalf("filter %v: %v allocations per warmed Search, want 1 (the result slice)", o.Filter != nil, allocs)
		}
	}
}
