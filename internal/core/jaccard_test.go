package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
)

// TestShardedJaccardPairsBesideWriters runs two loops of closest-pair
// queries over a two-shard Jaccard engine beside two Insert+Delete
// loops, which land on both shards. A waiting writer makes new readers
// of its shard wait, so a query that held one shard's read lock while
// taking another's would, with a writer queued on each shard, wait on
// the other query forever. Every loop must finish; a goroutine dump is
// the failure message when one does not.
func TestShardedJaccardPairsBesideWriters(t *testing.T) {
	sets := metricTestSets(50, 4, 32, 91)
	e, err := BuildSetsEngine(sets, Config{Seed: 3, Metric: metric.Jaccard, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 300 // per query loop
	stop := make(chan struct{})
	errs := make(chan error, 4) // one per loop
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < queries; i++ {
				if _, err := e.SearchPairs(context.Background(), 5, SearchOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := e.Insert(tokensAsFloats(sets[(2*i+g)%len(sets)]))
				if err == nil {
					err = e.Delete(id)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(stop)
		writers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%d queries per loop beside the writers not done after 10 s:\n%s", queries, buf[:runtime.Stack(buf, true)])
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
