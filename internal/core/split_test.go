package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// A Search shares its flat passes and verification with one helper
// goroutine (search.go: startHelper, queryHelper) when its work — flat
// pass and verification budget — reaches splitMinWork and a core holds
// no query. The split must be invisible: the same ids, the same distance
// bits and the same QueryStats as the serial loop, no goroutine left
// behind, and no allocation beyond the answer.

// splitDim is wide enough that a default-budget round of the index below
// (~2 300 live points, βn+k ≈ 700 candidates) reaches splitMinWork.
const splitDim = 768

// splitTestIndex builds a churned index over clustered rows in which
// every 29th row is an exact copy of row 0, so that a query at or near
// row 0 has more than 50 candidates tied at the k-th distance and the id
// decides. Churn: every 7th id deleted, 400 rows inserted into the tail.
func splitTestIndex(t *testing.T, cfg Config) (*Index, [][]float64) {
	t.Helper()
	data := clusteredData(2600, splitDim, 12, 3001)
	for i := 29; i < len(data); i += 29 {
		copy(data[i], data[0])
	}
	cfg.AutoCompactFraction = -1
	cfg.M = 15 // the table's rounds and sizes are those of the paper's β = 0.281
	ix, err := Build(data[:2200], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(3); id < 2200; id += 7 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range data[2200:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return ix, data
}

// splitQueries are row 0 (distance-0 ties), a perturbed row 0 (ties at a
// positive distance), a stored row and two perturbed ones.
func splitQueries(data [][]float64) [][]float64 {
	perturbed := func(row, salt int) []float64 {
		q := make([]float64, splitDim)
		for j, v := range data[row] {
			q[j] = v + 0.05*float64((j*7+salt)%11-5)
		}
		return q
	}
	return [][]float64{data[0], perturbed(0, 0), data[1500], perturbed(700, 1), perturbed(2400, 2)}
}

// TestSplitVerificationIsInvisible runs the same queries at GOMAXPROCS
// 1 (no helpers), 2 and 4: results Float64bits-equal and QueryStats
// identical, across k (one, fifty, more than the index holds), the
// derived and a tiny budget, a filter, single- and multi-round radius
// schedules, on a churned view with planted ties.
func TestSplitVerificationIsInvisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	notThird := func(id int32) bool { return id%3 != 0 }
	split, multiRound := 0, 0
	for _, shrink := range []float64{0, 0.2} {
		ix, data := splitTestIndex(t, Config{Seed: 5, RMinShrink: shrink})
		live := ix.LiveLen()
		type answer struct {
			res []Result
			st  QueryStats
		}
		want := map[string]answer{}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for qi, q := range splitQueries(data) {
				for _, k := range []int{1, 50, live + 5} {
					for _, budget := range []int{0, 10} {
						for _, filter := range []func(int32) bool{nil, notThird} {
							key := fmt.Sprintf("shrink=%v q%d k=%d budget=%d filter=%v", shrink, qi, k, budget, filter != nil)
							var st QueryStats
							res, err := ix.Search(ctx, q, k, SearchOptions{Budget: budget, Filter: filter, Stats: &st})
							if err != nil {
								t.Fatal(key, err)
							}
							if procs == 1 {
								want[key] = answer{res, st}
								if st.Rounds == 1 && st.Verified*splitDim >= splitMinWork {
									split++
								}
								if st.Rounds > 1 {
									multiRound++
								}
								if qi == 0 && k == 50 && budget == 0 && filter == nil && res[49].Dist != 0 {
									t.Fatalf("%s: the top-50 of the duplicated row is not all zeros: %+v", key, res[49])
								}
								continue
							}
							label := fmt.Sprintf("%s GOMAXPROCS=%d", key, procs)
							sameResults(t, label, want[key].res, res)
							sameStats(t, label, st, want[key].st)
						}
					}
				}
			}
		}
	}
	if split == 0 || multiRound == 0 {
		t.Fatalf("%d split-sized single-round queries, %d multi-round ones: the table does not reach both", split, multiRound)
	}
}

// TestSplitGateCountsTheFlatPass: the gate weighs all the work a helper
// shares (splitWork), the flat pass over the projected rows as well as
// the verification budget. A query whose budget × d alone is under
// splitMinWork but whose flat pass brings it over takes a helper and
// answers as it does at GOMAXPROCS 1; an index under both, and the
// shapes of the root package's BenchmarkQueryK50 (4 000 × 64) and
// BenchmarkQueryK50HighDim (2 000 × 768), take none.
func TestSplitGateCountsTheFlatPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		n, d  int
		takes bool
	}{
		{"flat pass over the gate", 10000, 128, true},
		{"under both", 2000, 128, false},
		{"BenchmarkQueryK50's shape", 4000, 64, false},
		{"BenchmarkQueryK50HighDim's shape", 2000, 768, false},
	} {
		data := clusteredData(tc.n, tc.d, 12, 3002)
		ix, err := Build(data, Config{Seed: 5})
		if err != nil {
			t.Fatal(tc.name, err)
		}
		work, budget := defaultWork(t, ix)
		if budget*tc.d >= splitMinWork || (work >= splitMinWork) != tc.takes {
			t.Fatalf("%s: work %d, of which verification %d, against the gate's %d", tc.name, work, budget*tc.d, splitMinWork)
		}
		qs := data[:5]
		runtime.GOMAXPROCS(1)
		want := make([][]Result, len(qs))
		for i, q := range qs {
			if want[i], err = ix.Search(ctx, q, 50, SearchOptions{}); err != nil {
				t.Fatal(tc.name, err)
			}
		}
		runtime.GOMAXPROCS(2)
		before := helperStarts.Load()
		for i, q := range qs {
			res, err := ix.Search(ctx, q, 50, SearchOptions{})
			if err != nil {
				t.Fatal(tc.name, err)
			}
			sameResults(t, fmt.Sprintf("%s: query %d at GOMAXPROCS=2", tc.name, i), want[i], res)
		}
		if took := helperStarts.Load() > before; took != tc.takes {
			t.Errorf("%s (work %d) started a helper: %v, want %v", tc.name, work, took, tc.takes)
		}
	}
}

// defaultWork is splitWork of a default k = 50 Search on ix, and the
// Search's verification budget.
func defaultWork(tb testing.TB, ix *Index) (work, budget int) {
	tb.Helper()
	p, err := ix.DeriveParams(DefaultC)
	if err != nil {
		tb.Fatal(err)
	}
	v := ix.view.Load()
	n := v.live()
	budget = min(int(math.Ceil(p.Beta*float64(n)))+50, n)
	return splitWork(v.tree.Rows(), ix.cfg.M, budget, ix.ndim), budget
}

// TestSearchJoinsItsHelpers: no helper works past the Search that took
// it, and its goroutine does not outlive its linger — neither after a
// query that ends normally nor after one whose context is canceled
// between rounds, right after a split round.
func TestSearchJoinsItsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	before := runtime.NumGoroutine()
	if _, err := ix.Search(context.Background(), data[1500], 50, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	checkJoined(t, "Search", before, "drain")

	// The filter cancels the context while the first round selects, so
	// that round is verified in full and the next one returns the error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	selected := 0
	cancelling := func(int32) bool {
		selected++
		cancel()
		return true
	}
	before = runtime.NumGoroutine()
	if _, err := ix.Search(ctx, data[1500], ix.LiveLen(), SearchOptions{Filter: cancelling}); err != context.Canceled {
		t.Fatalf("canceled Search returned %v, want context.Canceled", err)
	}
	if selected*splitDim < splitMinWork {
		t.Fatalf("the canceled query's first round selected %d candidates, under the split's %d", selected, splitMinWork/splitDim)
	}
	checkJoined(t, "canceled Search", before, "drain")
}

// TestSplitSearchAllocatesOnlyItsAnswer is TestSearchAllocatesOnlyItsAnswer
// with the split active: testing.AllocsPerRun runs at GOMAXPROCS 1, which
// never starts a helper, so this counts mallocs itself at GOMAXPROCS 4.
// The cursor, WaitGroup, helper buffers and goroutine bodies live in the
// pooled scratch; a warmed Search allocates its result slice only.
func TestSplitSearchAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	ctx := context.Background()
	qs := [][]float64{data[0], data[1000], data[1500]}
	for _, q := range qs {
		var st QueryStats
		if _, err := ix.Search(ctx, q, 50, SearchOptions{Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.Verified*splitDim < splitMinWork {
			t.Fatalf("a query verified %d candidates in %d rounds: too few to split", st.Verified, st.Rounds)
		}
	}
	const runs = 100
	search := func() {
		for i := 0; i < runs; i++ {
			if _, err := ix.Search(ctx, qs[i%len(qs)], 50, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	search() // sizes the pooled buffers
	// The least of up to twenty samples. Now and then the runtime
	// allocates a goroutine descriptor (runtime.malg) because its free
	// lists are stranded on idle Ps, and a GC can empty the pool; an
	// allocation of this package's would show in every sample.
	least := uint64(math.MaxUint64)
	for range 20 {
		if least == runs {
			break
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		search()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != runs {
		t.Fatalf("%d allocations over %d warmed split Searches, want %d (the result slices)", least, runs, runs)
	}
}

// TestSplitOnlyOnAnIdleCore: a query takes its helper only while fewer
// goroutines run queries than GOMAXPROCS. The test's goroutine stands in
// for a Search holding one of two cores; a second query holding the
// other — a concurrent request on the same shard, a batch worker, a
// sibling shard's goroutine, or a SearchBall or SearchPairs, each of
// which holds a core for as long as it runs — keeps the query serial.
// Either way the answer is the serial one and the count of querying
// goroutines is restored.
func TestSplitOnlyOnAnIdleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	v := ix.view.Load()
	q := data[1500]
	sc := ix.getScratch()
	defer ix.putScratch(sc, v.live())
	const budget = 1000
	if budget*splitDim < splitMinWork {
		t.Fatalf("a budget of %d candidates is under the split's %d", budget, splitMinWork/splitDim)
	}
	// One round at an infinite radius, cut at the budget, as a Search
	// runs it: through its helper, or on the caller when h is nil.
	query := func(h *queryHelper) verifier {
		en, err := ix.startEnum(sc, v.tree, q, false)
		if err != nil {
			t.Fatal(err)
		}
		vf := verifier{view: v, q: q, blk: &sc.blk, k: 50, bound: math.Inf(1)}
		sc.ids, _ = h.nearest(en, math.Inf(1), budget, nil, sc.ids)
		h.verify(&vf, sc.ids)
		h.join()
		return vf
	}
	want := query(nil)
	if want.verified != budget {
		t.Fatalf("the serial round verified %d candidates, want %d", want.verified, budget)
	}
	check := func(label string, searchers int64, split bool) {
		t.Helper()
		searching.Add(searchers)
		defer searching.Add(-searchers)
		before := searching.Load()
		h := sc.startHelper(budget * splitDim)
		if h != nil {
			// Let the helper reach its core, so that it is there to take
			// chunks of the flat pass and not only verification claims.
			time.Sleep(time.Millisecond)
		}
		got := query(h)
		if after := searching.Load(); after != before {
			t.Errorf("%s: the count went from %d to %d", label, before, after)
		}
		if (h != nil) != split {
			t.Errorf("%s on 2 cores: split %v, want %v", label, h != nil, split)
		}
		if got.verified != want.verified || got.bound != want.bound || !slices.Equal(got.top, want.top) {
			t.Errorf("%s: verified %d, top %v; serial %d, %v", label, got.verified, got.top, want.verified, want.top)
		}
	}
	for _, tc := range []struct {
		searching int64 // the test's goroutine included
		split     bool
	}{{1, true}, {2, false}, {3, false}} {
		check(fmt.Sprintf("%d searching", tc.searching), tc.searching, tc.split)
	}

	// A ball query and a closest-pair query each hold the other core
	// while their filters block.
	for _, holder := range []struct {
		name string
		run  func(filter func(int32) bool) error
	}{
		{"SearchBall", func(f func(int32) bool) error {
			_, err := ix.SearchBall(context.Background(), q, 1e6, SearchOptions{Filter: f})
			return err
		}},
		{"SearchPairs", func(f func(int32) bool) error {
			_, err := ix.SearchPairs(context.Background(), 1, SearchOptions{Filter: f})
			return err
		}},
	} {
		inside, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
		var once sync.Once
		go func() {
			done <- holder.run(func(int32) bool {
				once.Do(func() {
					close(inside)
					<-release
				})
				return true
			})
		}()
		<-inside
		check("1 searching beside a "+holder.name, 1, false)
		close(release)
		if err := <-done; err != nil {
			t.Fatal(holder.name, err)
		}
		if n := searching.Load(); n != 0 {
			t.Errorf("%s returned with %d goroutines still counted as searching", holder.name, n)
		}
	}
}

// TestBackToBackSearchesKeepTheirHelper: a closed-loop caller's Searches
// take over the helper the previous one left lingering in the pooled
// scratch instead of starting a goroutine each, and answer exactly as
// the serial loop does. Under the race detector sync.Pool drops a
// quarter of its Puts at random, and each dropped scratch costs its
// successor a new helper, so there the test checks the answers and the
// hand-over's races but not the count.
func TestBackToBackSearchesKeepTheirHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	ctx := context.Background()
	qs := splitQueries(data)
	want := make([][]Result, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = ix.Search(ctx, q, 50, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GOMAXPROCS(2)
	const runs = 200
	before := helperStarts.Load()
	for i := range runs {
		res, err := ix.Search(ctx, qs[i%len(qs)], 50, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("Search %d at GOMAXPROCS=2", i), want[i%len(qs)], res)
	}
	started := helperStarts.Load() - before
	if started == 0 {
		t.Fatalf("%d Searches of %d candidates × %d started no helper", runs, len(want[0]), splitDim)
	}
	if !raceEnabled && started > runs/10 {
		t.Fatalf("%d back-to-back Searches started %d helper goroutines, want at most %d", runs, started, runs/10)
	}
}

// TestLingeringHelperReturns: once a Search returns, its helper works no
// more, and its goroutine returns within helperLinger — whether the next
// query of the scratch never comes or the scratch is dropped from the
// pool while the helper lingers.
func TestLingeringHelperReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	for _, drop := range []bool{false, true} {
		before, starts := runtime.NumGoroutine(), helperStarts.Load()
		for _, q := range splitQueries(data) {
			if _, err := ix.Search(context.Background(), q, 50, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if helperStarts.Load() == starts {
			t.Fatal("no Search started a helper")
		}
		label := "kept in the pool"
		if drop {
			for ix.scratch.Get() != nil {
			}
			label = "dropped from the pool"
		}
		checkJoined(t, label, before, "drain")
	}
}

// TestFanOutTakesNoHelper: a query whose caller already spreads work
// over the cores — a multi-shard Engine.Search's per-shard goroutines,
// Index.SearchBatch's and Engine.SearchBatch's workers — starts no
// helper, however much it has to verify. At GOMAXPROCS 4 the count of
// searching goroutines would leave room for one in each case (a batch
// of one query runs one worker), so what keeps them out is that none of
// these calls is a query alone.
func TestFanOutTakesNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	engine := func(shards int) *Engine {
		e, err := BuildEngine(data, Config{Seed: 5, M: 15, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, two := engine(1), engine(2)
	ctx := context.Background()
	qs := splitQueries(data)
	o := SearchOptions{Budget: 1000} // a shard's 1 300 rows × 768 are past splitMinWork
	if 1000*splitDim < splitMinWork {
		t.Fatalf("a budget of 1000 candidates is under the split's %d", splitMinWork/splitDim)
	}
	for _, tc := range []struct {
		name  string
		run   func() error
		takes bool
	}{
		{"Index.Search", func() error { _, err := ix.Search(ctx, qs[0], 50, o); return err }, true},
		{"2-shard Engine.Search", func() error { _, err := two.Search(ctx, qs[0], 50, o); return err }, false},
		{"Index.SearchBatch of one", func() error { _, err := ix.SearchBatch(ctx, qs[:1], 50, o); return err }, false},
		{"Index.SearchBatch", func() error { _, err := ix.SearchBatch(ctx, qs, 50, o); return err }, false},
		{"1-shard Engine.SearchBatch of one", func() error { _, err := one.SearchBatch(ctx, qs[:1], 50, o); return err }, false},
		{"1-shard Engine.SearchBatch", func() error { _, err := one.SearchBatch(ctx, qs, 50, o); return err }, false},
	} {
		before := helperStarts.Load()
		if err := tc.run(); err != nil {
			t.Fatal(tc.name, err)
		}
		if took := helperStarts.Load() > before; took != tc.takes {
			t.Errorf("%s started a helper: %v, want %v", tc.name, took, tc.takes)
		}
	}
}
