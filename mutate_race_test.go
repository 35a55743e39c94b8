package pmlsh

// Concurrency tests for the mutation lifecycle, meant to run under
// `go test -race`: one mutator goroutine interleaving Insert, Delete
// and Compact with reader goroutines issuing KNN and KNNBatch against
// the same index.
//
// Dead-id soundness under concurrency needs care: a point deleted
// midway through a query may legitimately appear in its results (the
// query linearized before the delete). What must never happen is a
// query returning an id whose delete completed before the query
// started and that stayed dead until after it finished. The mutLog
// below makes that checkable: each delete records a monotone operation
// number; a reader snapshots the log before a query, and flags an id
// only if its pre-query entry is still in force after the query (ids
// are never reused, so an unchanged entry means "dead the whole
// time").

import (
	"context"
	"sync"
	"testing"
	"time"
)

// mutLog tracks, for each deleted id, the operation number of its
// delete. Ids are never reused, so an entry only ever appears once.
type mutLog struct {
	mu     sync.Mutex
	opSeq  uint64
	deadAt map[int32]uint64
}

func newMutLog() *mutLog {
	return &mutLog{deadAt: map[int32]uint64{}}
}

func (l *mutLog) recordDelete(id int32) {
	l.mu.Lock()
	l.opSeq++
	l.deadAt[id] = l.opSeq
	l.mu.Unlock()
}

// snapshot copies the current dead set.
func (l *mutLog) snapshot() map[int32]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int32]uint64, len(l.deadAt))
	for id, seq := range l.deadAt {
		out[id] = seq
	}
	return out
}

// violation reports whether id, seen in a query result, was dead for
// the query's whole duration: present in the pre-query snapshot and
// unchanged now.
func (l *mutLog) violation(pre map[int32]uint64, id int32) bool {
	seqBefore, deadBefore := pre[id]
	if !deadBefore {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deadAt[id] == seqBefore
}

// TestConcurrentMutationAndReads runs the full mutation lifecycle
// against concurrent readers and asserts that no query ever returns an
// id that was dead across its whole execution window.
func TestConcurrentMutationAndReads(t *testing.T) {
	ds := testData(t, 800)
	ix, err := Build(ds.Points, Config{Seed: 121})
	if err != nil {
		t.Fatal(err)
	}
	log := newMutLog()
	qs := ds.Queries(12, 122)
	dim := ix.Dim()

	const (
		mutOps  = 240
		readers = 4
	)
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	// Mutator: a deterministic program of deletes, inserts and periodic
	// compactions. Ids 0..mutOps-1 are doomed; inserted points get
	// fresh never-deleted ids.
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

	// Readers: alternate single KNN and KNNBatch, checking every id
	// against the mutation log's query-window rule.
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
				if rep%2 == 0 {
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
					continue
				}
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
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Post-churn consistency: live count matches the program, and a
	// final query is clean against the final dead set.
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

// TestConcurrentCompactAndClosestPairs interleaves Compact with
// ClosestPairs readers — the self-join holds the reader lock for its
// whole traversal, so the tree swap must never be observed mid-query.
func TestConcurrentCompactAndClosestPairs(t *testing.T) {
	ds := testData(t, 400)
	ix, err := Build(ds.Points, Config{Seed: 123})
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
