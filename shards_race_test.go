package pmlsh

// Snapshot-isolation tests for the sharded engine, meant to run under
// `go test -race`: the mutLog window technique from mutate_race_test.go
// applied at Config.Shards > 1, where mutations flip per-shard
// snapshots instead of taking a writer lock. The soundness rule is
// unchanged — a query must never return an id that was dead across its
// whole execution window — and now additionally covers queries that
// fan out across shards mid-flip.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// TestShardedConcurrentMutationAndReads runs the full mutation
// lifecycle against concurrent readers on a 4-shard index. Readers mix
// single KNN, KNNBatch, filtered Search and SearchBall so every
// fan-out path crosses snapshot flips.
func TestShardedConcurrentMutationAndReads(t *testing.T) {
	ds := testData(t, 800)
	ix, err := Build(ds.Points, Config{Seed: 131, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 4 {
		t.Fatalf("Shards() = %d", ix.Shards())
	}
	log := newMutLog()
	qs := ds.Queries(12, 132)
	dim := ix.Dim()
	ctx := context.Background()

	const (
		mutOps  = 240
		readers = 4
	)
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	// Mutator: the same deterministic program as the single-shard test —
	// ids 0..mutOps-1 are doomed, every third op inserts a fresh point,
	// every 80th compacts (all four shards, swapping four snapshots).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < mutOps; i++ {
			if err := ix.Delete(int32(i)); err != nil {
				errCh <- err
				return
			}
			log.recordDelete(int32(i))
			if i%3 == 0 {
				p := make([]float64, dim)
				copy(p, ds.Points[i])
				p[0] += 0.25
				if _, err := ix.Insert(p); err != nil {
					errCh <- err
					return
				}
			}
			if i%80 == 79 {
				if err := ix.Compact(); err != nil {
					errCh <- err
					return
				}
			}
			if i%10 == 0 {
				time.Sleep(time.Microsecond) // let readers through
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; ; rep++ {
				select {
				case <-stop:
					return
				default:
				}
				pre := log.snapshot()
				switch rep % 4 {
				case 0:
					res, err := ix.Search(context.Background(), qs[(g+rep)%len(qs)], 10, WithRatio(1.5))
					if err != nil {
						errCh <- err
						return
					}
					for _, nb := range res {
						if log.violation(pre, nb.ID) {
							t.Errorf("KNN returned id %d, dead across the whole query", nb.ID)
							return
						}
					}
				case 1:
					batch, err := ix.SearchBatch(context.Background(), qs, 10, WithRatio(1.5))
					if err != nil {
						errCh <- err
						return
					}
					for _, res := range batch {
						for _, nb := range res {
							if log.violation(pre, nb.ID) {
								t.Errorf("KNNBatch returned id %d, dead across the whole batch", nb.ID)
								return
							}
						}
					}
				case 2:
					// Filtered search: the filter sees global ids and must
					// only ever see live ones.
					res, err := ix.Search(ctx, qs[(g+rep)%len(qs)], 8,
						WithFilter(func(id int32) bool { return id%2 == 0 }))
					if err != nil {
						errCh <- err
						return
					}
					for _, nb := range res {
						if nb.ID%2 != 0 {
							t.Errorf("filter admitted only even ids, got %d", nb.ID)
							return
						}
						if log.violation(pre, nb.ID) {
							t.Errorf("filtered Search returned id %d, dead across the whole query", nb.ID)
							return
						}
					}
				default:
					nb, err := ix.SearchBall(ctx, qs[(g+rep)%len(qs)], 4.0)
					if err != nil {
						errCh <- err
						return
					}
					if nb != nil && log.violation(pre, nb.ID) {
						t.Errorf("SearchBall returned id %d, dead across the whole query", nb.ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	wantLive := 800 - mutOps + (mutOps+2)/3
	if ix.LiveLen() != wantLive {
		t.Fatalf("LiveLen=%d, want %d", ix.LiveLen(), wantLive)
	}
	final := log.snapshot()
	res, err := ix.Search(context.Background(), qs[0], 20, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if _, dead := final[nb.ID]; dead {
			t.Fatalf("quiescent KNN returned dead id %d", nb.ID)
		}
	}
}

// TestShardedConcurrentCompactAndClosestPairs interleaves per-shard
// compaction with cross-shard closest-pair readers — the merged
// self-join plus bipartite enumeration reads several pinned snapshots
// at once, so shard flips mid-merge must never surface dead pairs.
func TestShardedConcurrentCompactAndClosestPairs(t *testing.T) {
	ds := testData(t, 400)
	ix, err := Build(ds.Points, Config{Seed: 133, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	log := newMutLog()
	stop := make(chan struct{})
	errCh := make(chan error, 3)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 90; i++ {
			if err := ix.Delete(int32(i)); err != nil {
				errCh <- err
				return
			}
			log.recordDelete(int32(i))
			if i%30 == 29 {
				if err := ix.Compact(); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pre := log.snapshot()
				pairs, err := ix.SearchPairs(context.Background(), 8, WithRatio(1.5))
				if err != nil {
					errCh <- err
					return
				}
				for _, p := range pairs {
					if log.violation(pre, p.I) || log.violation(pre, p.J) {
						t.Errorf("ClosestPairs returned a pair dead across the query: %+v", p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestShardedConcurrentSerializeAndMutate snapshots the index with
// WriteTo while a mutator churns it. Every serialized stream must load
// into a working index whose live count falls inside the window the
// mutator could have produced (each shard's snapshot is consistent, so
// the loaded live count is bracketed by the churn program's bounds).
func TestShardedConcurrentSerializeAndMutate(t *testing.T) {
	ds := testData(t, 600)
	ix, err := Build(ds.Points, Config{Seed: 135, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 120; i++ {
			if err := ix.Delete(int32(i)); err != nil {
				errCh <- err
				return
			}
			if i%4 == 0 {
				if _, err := ix.Insert(ds.Points[i]); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := ds.Queries(1, 136)[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				errCh <- err
				return
			}
			loaded, err := Load(&buf)
			if err != nil {
				errCh <- err
				return
			}
			if n := loaded.LiveLen(); n < 600-120 || n > 600+30 {
				t.Errorf("snapshot live count %d outside churn window", n)
				return
			}
			if _, err := loaded.Search(context.Background(), q, 5, WithRatio(1.5)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
