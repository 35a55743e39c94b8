package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestChunkedRoundIsNearest: a round whose chunks two workers divide
// between their shares cuts to what Nearest returns, whichever worker
// took which chunk. For every division — worker 1 taking no chunk,
// every chunk, every chunk from each cut point c onward, or whatever
// it claims racing worker 0 on another goroutine — the ids equal
// Nearest's as one set per bucket, the buckets in order, and inRadius
// and DistComps equal Nearest's: every row is paid once per flat pass.
// The trees hold several chunks, a tail whose first chunk straddles the
// generation's end, and dead rows in both; queries run 1–3 rounds, with
// and without a filter and a limit.
func TestChunkedRoundIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(4001))
	twoInThree := func(id int32) bool { return id%3 != 0 }
	for trial := 0; trial < 4; trial++ {
		n, dim := 3*flatChunk+rng.Intn(2*flatChunk), 4+rng.Intn(6)
		data := randData(n, dim, rng.Int63())
		tail := 300 + rng.Intn(900)
		tr, err := Build(data[:n-tail], nil, Config{NumPivots: 3, PivotSeed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		for id := n - tail; id < n; id++ {
			if err := tr.Insert(data[id], int32(id)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n/15; i++ {
			tr.Delete(int32(rng.Intn(n))) // a repeat is refused, which is fine
		}
		chunks := (tr.Rows() + flatChunk - 1) / flatChunk
		if chunks < 4 || (n-tail)%flatChunk == 0 {
			t.Fatalf("trial %d: %d rows, %d in the tail, make %d chunks: the table needs a straddling tail", trial, tr.Rows(), tail, chunks)
		}
		q := randData(1, dim, rng.Int63())[0]
		var probe RangeEnumerator
		if err := probe.Reset(tr, q); err != nil {
			t.Fatal(err)
		}
		// Radii that hold a tenth, a third and all of the rows.
		var all []metrics.Neighbor
		probe.Expand(math.Inf(1), func(id int32, d float64) { all = append(all, metrics.Neighbor{ID: id, Dist: d}) })
		slices.SortFunc(all, metrics.CompareNeighbors)
		tenth, third := all[len(all)/10].Dist, all[len(all)/3].Dist
		schedules := [][]float64{{third}, {tenth, third}, {tenth, third, math.Inf(1)}}

		divisions := []int{claimed}
		for c := 0; c <= chunks; c++ {
			divisions = append(divisions, c)
		}
		for si, schedule := range schedules {
			for _, admit := range []func(int32) bool{nil, twoInThree} {
				for _, limit := range []int{math.MaxInt, 200} {
					for _, div := range divisions {
						var want, got RangeEnumerator
						if err := want.Reset(tr, q); err != nil {
							t.Fatal(err)
						}
						if err := got.Reset(tr, q); err != nil {
							t.Fatal(err)
						}
						var wantIDs, gotIDs []int32
						for ri, r := range schedule {
							label := fmt.Sprintf("trial %d schedule %d round %d filter %v limit %d division %d", trial, si, ri, admit != nil, limit, div)
							var wantIn, gotIn int
							wantIDs, wantIn = want.Nearest(r, limit, admit, wantIDs)
							divide(&got, got.Begin(r), div)
							gotIDs, gotIn = got.Cut(limit, admit, gotIDs)
							if gotIn != wantIn || got.DistComps() != want.DistComps() || got.DistComps() != int64(tr.Rows()) {
								t.Fatalf("%s: inRadius %d after %d evaluations, Nearest %d after %d, over %d rows",
									label, gotIn, got.DistComps(), wantIn, want.DistComps(), tr.Rows())
							}
							sameBuckets(t, label, &want, wantIDs, gotIDs, all)
						}
					}
				}
			}
		}
	}
}

// claimed is the division in which two goroutines, one per worker,
// claim chunks from one counter.
const claimed = -1

// divide resolves chunks 0…n-1 of e's round as div says: claimed, or
// worker 0 taking the chunks below div and worker 1 the rest.
func divide(e *RangeEnumerator, n, div int) {
	if div != claimed {
		for i := 0; i < n; i++ {
			w := 0
			if i >= div {
				w = 1
			}
			e.Resolve(i, w)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				e.Resolve(i, w)
			}
		}()
	}
	wg.Wait()
}

// sameBuckets checks that got holds want's ids as one set per bucket of
// the round, the buckets in ascending order; all maps ids to distances.
func sameBuckets(t *testing.T, label string, e *RangeEnumerator, want, got []int32, all []metrics.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, Nearest %d", label, len(got), len(want))
	}
	dist := make(map[int32]float64, len(all))
	for _, r := range all {
		dist[r.ID] = r.Dist
	}
	bucket := func(id int32) int32 { return bucketOf(dist[id], e.base, e.scale) }
	for i := range got {
		if bucket(got[i]) != bucket(want[i]) || (i > 0 && bucket(got[i]) < bucket(got[i-1])) {
			t.Fatalf("%s: id %d at %d is of bucket %d; Nearest's %d there is of bucket %d",
				label, got[i], i, bucket(got[i]), want[i], bucket(want[i]))
		}
	}
	if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
		t.Fatalf("%s: the ids differ from Nearest's", label)
	}
}
