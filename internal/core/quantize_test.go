package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// Screening identity tests: an index with Config.Quantize set must
// answer every query element-wise identically (same ids, bit-identical
// distances) to the same index without it — the screen is reject-only,
// so it may only skip exact computations whose outcome is already
// decided. These tests drive the four screened paths (Search,
// SearchBall, SearchPairs) across both codecs,
// fresh and churned indexes.

// buildTwin builds the same index twice, with and without quantization.
func buildTwin(t *testing.T, data [][]float64, kind store.QuantKind) (plain, quant *Index) {
	t.Helper()
	var err error
	if plain, err = Build(data, Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if quant, err = Build(data, Config{Seed: 42, Quantize: kind}); err != nil {
		t.Fatal(err)
	}
	return
}

func sameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d screened", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: rank %d diverged: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func samePairs(t *testing.T, label string, a, b []Pair) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d pairs vs %d screened", label, len(a), len(b))
	}
	for i := range a {
		if a[i].I != b[i].I || a[i].J != b[i].J ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: rank %d diverged: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func TestQuantizedSearchIdentity(t *testing.T) {
	ctx := context.Background()
	data := randData(500, 24, 901)
	queries := randData(40, 24, 902)
	for _, kind := range []store.QuantKind{store.QuantF32, store.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			plain, quant := buildTwin(t, data, kind)
			totalScreened := 0
			for _, k := range []int{1, 5, 20} {
				for qi, q := range queries {
					var stP, stQ QueryStats
					rp, err := plain.Search(ctx, q, k, SearchOptions{Stats: &stP})
					if err != nil {
						t.Fatal(err)
					}
					rq, err := quant.Search(ctx, q, k, SearchOptions{Stats: &stQ})
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, kind.String(), rp, rq)
					// Screening must not change the work accounting either:
					// same rounds, same candidate count, same final radius.
					if stP.Rounds != stQ.Rounds || stP.Verified != stQ.Verified ||
						stP.FinalRadius != stQ.FinalRadius {
						t.Fatalf("query %d k=%d: stats diverged: %+v vs %+v", qi, k, stP, stQ)
					}
					if stP.Screened != 0 {
						t.Fatalf("unquantized index reported Screened=%d", stP.Screened)
					}
					if stQ.Screened > stQ.Verified {
						t.Fatalf("Screened=%d > Verified=%d", stQ.Screened, stQ.Verified)
					}
					totalScreened += stQ.Screened
				}
			}
			if totalScreened == 0 {
				t.Fatal("screen never fired across the whole workload")
			}
		})
	}
}

func TestQuantizedSearchIdentityUnderChurn(t *testing.T) {
	ctx := context.Background()
	data := randData(300, 16, 903)
	rng := rand.New(rand.NewSource(904))
	for _, kind := range []store.QuantKind{store.QuantF32, store.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			plain, quant := buildTwin(t, data, kind)
			check := func(stage string) {
				for _, q := range randData(10, 16, 905) {
					rp, err := plain.Search(ctx, q, 10, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					rq, err := quant.Search(ctx, q, 10, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, kind.String()+"/"+stage, rp, rq)
				}
			}
			check("fresh")
			// Delete a third, insert out-of-range points (stressing
			// clamped i8 codes with widened slack), query again.
			for i := 0; i < 100; i++ {
				id := int32(rng.Intn(300))
				if plain.IsLive(id) {
					if err := plain.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := quant.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 60; i++ {
				p := make([]float64, 16)
				for j := range p {
					p[j] = rng.NormFloat64() * 40
				}
				if _, err := plain.Insert(p); err != nil {
					t.Fatal(err)
				}
				if _, err := quant.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			check("churned")
			if err := plain.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := quant.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted")
		})
	}
}

func TestQuantizedBallIdentity(t *testing.T) {
	ctx := context.Background()
	data := randData(400, 24, 906)
	queries := randData(25, 24, 907)
	for _, kind := range []store.QuantKind{store.QuantF32, store.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			plain, quant := buildTwin(t, data, kind)
			screened := 0
			for _, q := range queries {
				for _, r := range []float64{5, 20, 60, 120} {
					var stQ QueryStats
					rp, err := plain.SearchBall(ctx, q, r, SearchOptions{C: 1.5})
					if err != nil {
						t.Fatal(err)
					}
					rq, err := quant.SearchBall(ctx, q, r, SearchOptions{C: 1.5, Stats: &stQ})
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case (rp == nil) != (rq == nil):
						t.Fatalf("r=%v: plain=%v quant=%v", r, rp, rq)
					case rp != nil && (rp.ID != rq.ID ||
						math.Float64bits(rp.Dist) != math.Float64bits(rq.Dist)):
						t.Fatalf("r=%v: diverged: %+v vs %+v", r, rp, rq)
					}
					screened += stQ.Screened
				}
			}
			if screened == 0 {
				t.Fatal("ball screen never fired across the whole workload")
			}
		})
	}
}

func TestQuantizedPairsIdentity(t *testing.T) {
	ctx := context.Background()
	data := randData(250, 20, 908)
	for _, kind := range []store.QuantKind{store.QuantF32, store.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			plain, quant := buildTwin(t, data, kind)
			for _, k := range []int{1, 10, 40} {
				var stP, stQ CPStats
				pp, err := plain.SearchPairs(ctx, k, SearchOptions{PairStats: &stP})
				if err != nil {
					t.Fatal(err)
				}
				pq, err := quant.SearchPairs(ctx, k, SearchOptions{PairStats: &stQ})
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, "serial", pp, pq)
				if stP.Rounds != stQ.Rounds || stP.Verified != stQ.Verified ||
					stP.Enumerated != stQ.Enumerated {
					t.Fatalf("k=%d: pair stats diverged: %+v vs %+v", k, stP, stQ)
				}
				if k >= 10 && stQ.Screened == 0 {
					t.Fatalf("k=%d: pair screen never fired", k)
				}
			}
		})
	}
}
