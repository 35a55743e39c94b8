package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/metric"
)

// TestIsolationContract states what a reader may rely on while the
// index is mutated, against an oracle: the same query answered before
// the mutation. A query holds the view it loaded — one state, from its
// first step to its last — and nothing a later mutation does reaches
// it:
//
//   - a Search whose Filter blocks mid-selection while the test deletes
//     one of its true neighbours, inserts a nearer point and compacts
//     the index still answers exactly as before all three (the deleted
//     id with its own distance — its id never resolves to another
//     point's row, though Compact has repacked them — and not the new
//     point); the next Search returns the new point and not the deleted;
//   - a SearchBatch blocked the same way answers every query, those its
//     workers claim after the mutations included, from that one state;
//   - Info reads each shard from one view, so its counts add up at any
//     moment (TestInfoConsistentUnderMutator samples it under a
//     mutator).
//
// Run under -race: the mutations run while the readers are inside the
// arrays.
func TestIsolationContract(t *testing.T) {
	ctx := context.Background()
	for _, m := range []metric.Kind{metric.L2, metric.Cosine} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", m, shards), func(t *testing.T) {
				data := clusteredData(900, 10, 6, 71)
				build := func() *Engine {
					e, err := BuildEngine(data, Config{Shards: shards, Seed: 72, Metric: m, AutoCompactFraction: -1})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				q := data[17]
				// nearer is closer to q than anything indexed but q's own point
				// (id 17, at distance 0 under both metrics).
				nearer := slices.Clone(q)
				nearer[0] *= 1 + 1e-9

				// mutate deletes a true neighbour of q, inserts nearer and
				// compacts; it returns the two ids.
				mutate := func(e *Engine, before []Result) (victim, added int32) {
					victim = before[1].ID
					if err := e.Delete(victim); err != nil {
						t.Error(err)
					}
					added, err := e.Insert(nearer)
					if err != nil {
						t.Error(err)
					}
					if err := e.Compact(); err != nil {
						t.Error(err)
					}
					return victim, added
				}
				// gate is a Filter that admits everything, announces its first
				// call and holds every call until released.
				gate := func() (filter func(int32) bool, entered, release chan struct{}) {
					entered, release = make(chan struct{}), make(chan struct{})
					var once sync.Once
					return func(int32) bool {
						once.Do(func() { close(entered) })
						<-release
						return true
					}, entered, release
				}
				after := func(e *Engine, victim, added int32) {
					t.Helper()
					got, err := e.Search(ctx, q, 8, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int32, len(got))
					for i, r := range got {
						ids[i] = r.ID
					}
					if !slices.Contains(ids, added) || slices.Contains(ids, victim) {
						t.Fatalf("a query after the mutations returned %v: want the inserted %d and not the deleted %d", ids, added, victim)
					}
					if info := e.Info(); info.IDs != len(data)+1 || info.Live != len(data) || info.Dead != 0 {
						t.Fatalf("after one delete, one insert and a compaction Info says %+v", info)
					}
				}

				t.Run("Search", func(t *testing.T) {
					e := build()
					before, err := e.Search(ctx, q, 8, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					filter, entered, release := gate()
					var got []Result
					done := make(chan error, 1)
					go func() {
						var err error
						got, err = e.Search(ctx, q, 8, SearchOptions{Filter: filter})
						done <- err
					}()
					<-entered
					victim, added := mutate(e, before)
					close(release)
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					identicalResults(t, "a Search overtaken by delete, insert and compact", got, before)
					after(e, victim, added)
				})

				t.Run("SearchBatch", func(t *testing.T) {
					e := build()
					before, err := e.Search(ctx, q, 8, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// More queries than any worker pool here has workers, so some
					// are claimed only after the release — after the mutations.
					qs := make([][]float64, 24)
					for i := range qs {
						qs[i] = q
					}
					filter, entered, release := gate()
					var got [][]Result
					done := make(chan error, 1)
					go func() {
						var err error
						got, err = e.SearchBatch(ctx, qs, 8, SearchOptions{Filter: filter})
						done <- err
					}()
					<-entered
					victim, added := mutate(e, before)
					close(release)
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					for i, res := range got {
						identicalResults(t, fmt.Sprintf("query %d of a SearchBatch overtaken by delete, insert and compact", i), res, before)
					}
					after(e, victim, added)
				})
			})
		}
	}
}
