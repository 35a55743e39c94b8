package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// A Search splits a round's verification between its own goroutine and
// one helper (search.go: verifyRound, splitVerify) when the round's work
// reaches splitMinWork and a core holds no search. The split must be
// invisible: the same ids, the same distance bits and the same
// QueryStats as the serial loop, no goroutine left behind, and no
// allocation beyond the answer.

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

// TestSearchJoinsItsHelpers: no helper outlives the Search that started
// it — neither after a query that ends normally nor after one whose
// context is canceled between rounds, right after a split round.
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

// TestSplitOnlyOnAnIdleCore: a round takes its helper only while fewer
// goroutines search than GOMAXPROCS. The test's goroutine stands in for
// a Search holding one of two cores; a second search holding the other
// — a concurrent request on the same shard, a batch worker, a sibling
// shard's goroutine — keeps the round serial. Either way the answer is
// the serial one and the count of searching goroutines is restored.
func TestSplitOnlyOnAnIdleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ix, data := splitTestIndex(t, Config{Seed: 5})
	v := ix.view.Load()
	q := data[1500]
	sc := ix.getScratch()
	defer ix.putScratch(sc, v.live())
	en, err := ix.startEnum(sc, v.tree, q, false)
	if err != nil {
		t.Fatal(err)
	}
	sc.ids, _ = en.Nearest(math.Inf(1), 1000, nil, sc.ids)
	if len(sc.ids)*splitDim < splitMinWork {
		t.Fatalf("%d candidates are under the split's %d", len(sc.ids), splitMinWork/splitDim)
	}
	fresh := func() verifier {
		return verifier{view: v, q: q, blk: &sc.blk, k: 50, bound: math.Inf(1)}
	}
	want := fresh()
	want.run(sc.ids)
	for _, tc := range []struct {
		searching int64 // the test's goroutine included
		split     bool
	}{{1, true}, {2, false}, {3, false}} {
		searching.Add(tc.searching)
		before := searching.Load()
		sc.split.run = nil // set again only by a split
		got := fresh()
		sc.verifyRound(&got, sc.ids)
		after := searching.Load()
		searching.Add(-tc.searching)
		if split := sc.split.run != nil; split != tc.split {
			t.Errorf("%d searching on 2 cores: split %v, want %v", tc.searching, split, tc.split)
		}
		if after != before {
			t.Errorf("%d searching: the count went from %d to %d", tc.searching, before, after)
		}
		if got.verified != want.verified || got.bound != want.bound || !slices.Equal(got.top, want.top) {
			t.Errorf("%d searching: verified %d, top %v; serial %d, %v", tc.searching, got.verified, got.top, want.verified, want.top)
		}
	}
}
