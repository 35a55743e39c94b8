package pmlsh

// Tests for the public request API: filtered search must agree with a
// filtered brute-force oracle, cancellation must return ctx.Err()
// promptly and leave the index usable, nil results must stay nil
// through the public conversion layer, and a mutation hammer must hold
// under -race.

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vec"
)

// randomChurnedIndex builds a public index under a random config,
// optionally churned through Delete/Insert. Returns the index and a
// live-id -> vector oracle.
func randomChurnedIndex(t *testing.T, rng *rand.Rand) (*Index, map[int32][]float64) {
	t.Helper()
	n := 200 + rng.Intn(300)
	dim := 6 + rng.Intn(20)
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * 6
		}
	}
	cfg := Config{
		M:                   []int{8, 15}[rng.Intn(2)],
		Seed:                rng.Int63(),
		AutoCompactFraction: -1,
	}
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int32][]float64, n)
	for i, p := range data {
		live[int32(i)] = p
	}
	if rng.Intn(2) == 0 { // churn half the time
		for i := 0; i < 30; i++ {
			id := int32(rng.Intn(n))
			if err := ix.Delete(id); err == nil {
				delete(live, id)
			}
		}
		for i := 0; i < 20; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * 6
			}
			id, err := ix.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = p
		}
	}
	return ix, live
}

// TestPublicFilteredSearch checks WithFilter at ~50% selectivity
// against a filtered brute-force oracle over the live set, and that
// the filtered engine does fewer exact verifications than the
// unfiltered query a caller would post-filter.
func TestPublicFilteredSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(772))
	admit := func(id int32) bool { return id%2 == 0 }
	var recallSum float64
	var queries, filteredVerified, unfilteredVerified int
	for trial := 0; trial < 8; trial++ {
		ix, live := randomChurnedIndex(t, rng)
		for qi := 0; qi < 4; qi++ {
			var q []float64
			for _, p := range live {
				q = p
				break
			}
			k := 5 + rng.Intn(8)
			var fst, ust QueryStats
			got, err := ix.Search(context.Background(), q, k,
				WithFilter(admit), WithStats(&fst))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Search(context.Background(), q, k, WithStats(&ust)); err != nil {
				t.Fatal(err)
			}
			// Filtered brute force over the live admitted set.
			type cand struct {
				id int32
				d  float64
			}
			var exact []cand
			for id, p := range live {
				if !admit(id) {
					continue
				}
				exact = append(exact, cand{id: id, d: vec.L2(q, p)})
			}
			sort.Slice(exact, func(i, j int) bool {
				if exact[i].d != exact[j].d {
					return exact[i].d < exact[j].d
				}
				return exact[i].id < exact[j].id
			})
			if len(exact) > k {
				exact = exact[:k]
			}
			if len(exact) == 0 {
				continue
			}
			exactIDs := make(map[int32]bool, len(exact))
			for _, e := range exact {
				exactIDs[e.id] = true
			}
			hits := 0
			for _, nb := range got {
				if !admit(nb.ID) {
					t.Fatalf("trial %d: filtered-out id %d returned", trial, nb.ID)
				}
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
	if filteredVerified >= unfilteredVerified {
		t.Fatalf("filtered search verified %d >= unfiltered %d (filter not pushed into the loop?)",
			filteredVerified, unfilteredVerified)
	}
}

// TestPublicCancellation: canceled and expired contexts return
// ctx.Err() from every public entry point, and the index stays usable.
func TestPublicCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(773))
	ix, live := randomChurnedIndex(t, rng)
	var q []float64
	for _, p := range live {
		q = p
		break
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Search(canceled, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search: %v", err)
	}
	if _, err := ix.SearchBatch(canceled, [][]float64{q, q}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch: %v", err)
	}
	if _, err := ix.SearchBall(canceled, q, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBall: %v", err)
	}
	if _, err := ix.SearchPairs(canceled, 5); err == nil {
		t.Fatal("SearchPairs under canceled ctx succeeded")
	} else if !errors.Is(err, context.Canceled) {
		// The R-tree ablation rejects pair queries before looking at ctx.
		t.Logf("SearchPairs: %v (non-PM-tree backend)", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ix.Search(expired, q, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Search under expired deadline: %v", err)
	}
	// Still healthy.
	if _, err := ix.Search(context.Background(), q, 5); err != nil {
		t.Fatalf("Search after cancellations: %v", err)
	}
}

// TestConvertNilInNilOut is the regression test for the conversion
// layer: queries whose core answer is nil must surface nil, not an
// allocated empty slice.
func TestConvertNilInNilOut(t *testing.T) {
	if got := convert(nil); got != nil {
		t.Fatalf("convert(nil) = %#v, want nil", got)
	}
	if got := convertPairs(nil); got != nil {
		t.Fatalf("convertPairs(nil) = %#v, want nil", got)
	}
	if got := convert([]core.Result{}); got == nil || len(got) != 0 {
		t.Fatalf("convert(empty) = %#v, want empty non-nil", got)
	}
	if got := convertPairs([]core.Pair{}); got == nil || len(got) != 0 {
		t.Fatalf("convertPairs(empty) = %#v, want empty non-nil", got)
	}

	// End to end: an index whose live set is empty answers nil.
	ix, err := Build([][]float64{{1, 2}, {3, 4}}, Config{AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(context.Background(), []float64{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("empty-index Search = %#v, want nil", res)
	}
	pairs, err := ix.SearchPairs(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != nil {
		t.Fatalf("empty-index SearchPairs = %#v, want nil", pairs)
	}
}

// TestSearchMutationRaceHammer mixes Search/SearchBatch (with filters
// and stats sinks) with Insert/Delete/Compact from concurrent
// goroutines — the -race exercise for the request API's pooled state.
func TestSearchMutationRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(774))
	dim := 8
	n := 400
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.NormFloat64() * 4
		}
	}
	ix, err := Build(data, Config{Seed: 21, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(id int32) bool { return id%2 == 0 }
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Mutator: deletes random ids, inserts perturbed points, compacts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(31))
		for op := 0; !stop.Load(); op++ {
			switch op % 8 {
			case 7:
				if err := ix.Compact(); err != nil {
					errCh <- err
					return
				}
			case 0, 1, 2:
				id := int32(mrng.Intn(ix.Len()))
				_ = ix.Delete(id) // already-deleted errors are expected
			default:
				p := make([]float64, dim)
				for j := range p {
					p[j] = mrng.NormFloat64() * 4
				}
				if _, err := ix.Insert(p); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(100 + g)))
			ctx := context.Background()
			for i := 0; !stop.Load(); i++ {
				q := data[qrng.Intn(n)]
				switch i % 3 {
				case 0:
					var st QueryStats
					res, err := ix.Search(ctx, q, 5, WithFilter(admit), WithStats(&st))
					if err != nil {
						errCh <- err
						return
					}
					for _, nb := range res {
						if !admit(nb.ID) {
							errCh <- errors.New("filtered-out id returned under churn")
							return
						}
					}
				case 1:
					qs := [][]float64{q, data[qrng.Intn(n)]}
					stats := make([]QueryStats, len(qs))
					if _, err := ix.SearchBatch(ctx, qs, 5, WithBatchStats(stats)); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := ix.SearchPairs(ctx, 3); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
