package pmlsh

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// KNNBatch must return exactly what per-query KNN returns, in input
// order.
func TestKNNBatchMatchesSerial(t *testing.T) {
	ds := testData(t, 900)
	ix, err := Build(ds.Points, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(40, 32)
	batch, err := ix.SearchBatch(context.Background(), qs, 10, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d result sets for %d queries", len(batch), len(qs))
	}
	for i, q := range qs {
		serial, err := ix.Search(context.Background(), q, 10, WithRatio(1.5))
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(batch[i]) {
			t.Fatalf("query %d: batch %d results, serial %d", i, len(batch[i]), len(serial))
		}
		for j := range serial {
			if serial[j] != batch[i][j] {
				t.Fatalf("query %d result %d: batch %+v, serial %+v", i, j, batch[i][j], serial[j])
			}
		}
	}
}

func TestKNNBatchEdgeCases(t *testing.T) {
	ds := testData(t, 300)
	ix, err := Build(ds.Points, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.SearchBatch(context.Background(), nil, 5, WithRatio(1.5)); err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	// A bad query surfaces as an error naming its index, and the batch
	// returns no results at all — never a partially filled slice.
	qs := ds.Queries(3, 34)
	qs[1] = []float64{1, 2, 3} // wrong dimensionality
	res, err := ix.SearchBatch(context.Background(), qs, 5, WithRatio(1.5))
	if err == nil {
		t.Fatal("bad query should produce an error")
	}
	if res != nil {
		t.Fatalf("failed batch should return nil results, got %v", res)
	}
	if _, err := ix.SearchBatch(context.Background(), ds.Queries(2, 35), 0, WithRatio(1.5)); err == nil {
		t.Fatal("k=0 should fail")
	}
}

// Exercises the per-query scratch pool under the race detector: many
// goroutines mixing KNNBatch and single KNN calls against one shared
// index. Run with `go test -race`.
func TestConcurrentBatchAndSingleQueries(t *testing.T) {
	ds := testData(t, 700)
	ix, err := Build(ds.Points, Config{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(16, 38)
	want, err := ix.SearchBatch(context.Background(), qs, 5, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		// Batch caller.
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := ix.SearchBatch(context.Background(), qs, 5, WithRatio(1.5))
				if err != nil {
					errCh <- err
					return
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j] != want[i][j] {
							t.Errorf("concurrent batch diverged at query %d", i)
							return
						}
					}
				}
			}
		}()
		// Single-query caller.
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				qi := (g*7 + rep) % len(qs)
				got, err := ix.Search(context.Background(), qs[qi], 5, WithRatio(1.5))
				if err != nil {
					errCh <- err
					return
				}
				for j := range got {
					if got[j] != want[qi][j] {
						t.Errorf("concurrent KNN diverged at query %d", qi)
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
}

// A store-backed index must round-trip through WriteTo/Load and answer
// every query identically, across Search, SearchBatch and SearchBall.
func TestStoreBackedRoundTrip(t *testing.T) {
	ds := testData(t, 800)
	cfg := Config{Seed: 41}
	ix, err := Build(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(20, 42)
	a, err := ix.SearchBatch(context.Background(), qs, 7, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.SearchBatch(context.Background(), qs, 7, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cfg %+v query %d: %d vs %d results", cfg, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cfg %+v query %d result %d: %+v vs %+v", cfg, i, j, a[i][j], b[i][j])
			}
		}
	}
	nb1, err1 := ix.SearchBall(context.Background(), qs[0], 1.0, WithRatio(2))
	nb2, err2 := loaded.SearchBall(context.Background(), qs[0], 1.0, WithRatio(2))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if (nb1 == nil) != (nb2 == nil) || (nb1 != nil && *nb1 != *nb2) {
		t.Fatalf("cfg %+v: BallCover diverged: %+v vs %+v", cfg, nb1, nb2)
	}
}
