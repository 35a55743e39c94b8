package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// This file pins the block verifier (search.go) to the loop it
// replaced: one candidate at a time, every distance computed against
// the live bound, every check made per candidate. The reference below
// is that loop on the same selecting enumerator, so everything the
// radius schedule exposes — ProjectedDistComps included — must agree,
// not only the answers. Candidates at exactly equal distance rank by id
// (insertCandidate), here as in the engine.

// seqSearch is searchLocked with sequential verification and the
// caller's k taken as given (no clamp to the live count).
func seqSearch(ix *Index, q []float64, k int, o SearchOptions) ([]Result, QueryStats, error) {
	var st QueryStats
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, st, err
	}
	n := ix.data.Live()
	needed := int(math.Ceil(params.Beta*float64(n))) + k
	if o.Budget > 0 {
		needed = o.Budget
	}
	r := distQuantile(ix.view.Load().distCDF, float64(needed)/float64(n)) * ix.cfg.RMinShrink
	if r <= 0 {
		r = smallestPositiveDistance(ix.view.Load().distCDF)
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc, ix.LiveLen())
	en, err := ix.startEnum(sc, ix.Tree(), q)
	if err != nil {
		return nil, st, err
	}
	top := make([]Result, 0, k)
	bound := math.Inf(1)
	scanned := 0
	codec := ix.data.Codec()
	for {
		st.Rounds++
		var inRadius int
		sc.ids, inRadius = en.Nearest(params.T*r, needed-st.Verified, o.Filter, sc.ids)
		scanned += inRadius
		for _, id := range sc.ids {
			st.Verified++
			row := int(ix.view.Load().rowOf[id])
			if codec != nil && len(top) == k && codec.QueryLowerBound(q, row, bound) > bound {
				st.Screened++
				continue
			}
			d2 := vec.SquaredL2Bounded(q, ix.data.Row(row), bound)
			top = insertCandidate(top, Result{ID: id, Dist: d2}, k)
			if len(top) == k {
				bound = top[k-1].Dist
			}
		}
		if st.Verified >= needed {
			break
		}
		if cr := c * r; kthWithin(top, k, cr*cr) {
			break
		}
		if scanned >= n {
			break
		}
		r *= c
	}
	st.FinalRadius = r
	st.ProjectedDistComps = en.DistComps()
	for i := range top {
		top[i].Dist = math.Sqrt(top[i].Dist)
	}
	return top, st, nil
}

// seqSearchBall is SearchBall (L2) with sequential verification.
func seqSearchBall(ix *Index, q []float64, r float64, o SearchOptions) (*Result, QueryStats, error) {
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, QueryStats{}, err
	}
	betaN := int(math.Ceil(params.Beta * float64(ix.data.Live())))
	if o.Budget > 0 {
		betaN = o.Budget
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc, ix.LiveLen())
	en, err := ix.startEnum(sc, ix.Tree(), q)
	if err != nil {
		return nil, QueryStats{}, err
	}
	sc.ids, _ = en.Nearest(params.T*r, math.MaxInt, o.Filter, sc.ids)
	best := Result{ID: -1, Dist: math.Inf(1)}
	st := QueryStats{Rounds: 1, FinalRadius: r}
	codec := ix.data.Codec()
	for _, id := range sc.ids {
		st.Verified++
		row := int(ix.view.Load().rowOf[id])
		if codec != nil && best.ID >= 0 && codec.QueryLowerBound(q, row, best.Dist) > best.Dist {
			st.Screened++
			continue
		}
		cand := Result{ID: id, Dist: vec.SquaredL2Bounded(q, ix.data.Row(row), best.Dist)}
		if compareDistID(cand, best) < 0 {
			best = cand
		}
	}
	st.ProjectedDistComps = en.DistComps()
	if best.ID >= 0 {
		best.Dist = math.Sqrt(best.Dist)
	}
	if st.Verified >= betaN+1 || (best.ID >= 0 && best.Dist <= c*r) {
		return &best, st, nil
	}
	return nil, st, nil
}

// verifyTestData is clustered rows with one point stored 80 times over
// (a full top-50 of exact duplicates drives the bound to zero) and a
// sprinkle of near-duplicates, at a width that has whole abandon
// blocks, a four-wide remainder and a scalar tail.
func verifyTestData(rng *rand.Rand) [][]float64 {
	const n, dim = 700, 37
	centers := make([][]float64, 5)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * 6
		}
	}
	data := make([][]float64, n)
	for i := range data {
		p := make([]float64, dim)
		switch {
		case i >= 80 && i%9 == 0: // near-duplicate of an earlier row
			for j, v := range data[rng.Intn(i)] {
				p[j] = v + 1e-9*rng.NormFloat64()
			}
		case i < 80: // exact duplicates of one point
			copy(p, centers[0])
		default:
			for j, v := range centers[rng.Intn(len(centers))] {
				p[j] = v + rng.NormFloat64()
			}
		}
		data[i] = p
	}
	return data
}

func sameStats(t *testing.T, label string, got, want QueryStats, codec bool) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Verified != want.Verified ||
		math.Float64bits(got.FinalRadius) != math.Float64bits(want.FinalRadius) ||
		got.ProjectedDistComps != want.ProjectedDistComps {
		t.Fatalf("%s: stats %+v, want %+v", label, got, want)
	}
	// Screened is judged against the block-start bound, so it may fall
	// short of the per-candidate count — never outside [0, Verified],
	// and never non-zero without a codec.
	if got.Screened < 0 || got.Screened > got.Verified || (!codec && got.Screened != 0) {
		t.Fatalf("%s: Screened = %d with Verified = %d (codec %v)", label, got.Screened, got.Verified, codec)
	}
}

// TestBlockVerifierMatchesSequential is the equivalence table: across
// k (one, the benchmark's fifty, more than the index holds), budgets
// that cut inside, at the edge of and beyond one block, an id filter,
// both codecs, duplicate-heavy rows and a shrunken r_min that forces
// several rounds, Search and SearchBall answer exactly as the
// sequential loop does.
func TestBlockVerifierMatchesSequential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1601))
	data := verifyTestData(rng)
	everyThird := func(id int32) bool { return id%3 == 0 }
	for _, kind := range []store.QuantKind{store.QuantNone, store.QuantF32, store.QuantI8} {
		ix, err := Build(data, Config{Seed: 9, Quantize: kind, RMinShrink: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		// Churn a little so ids and rows stop coinciding.
		for _, id := range []int32{3, 90, 91, 400} {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.Insert(data[200]); err != nil {
			t.Fatal(err)
		}
		n := ix.data.Live()
		queries := [][]float64{data[0], data[150], data[699]} // the duplicated point first
		for i := 0; i < 3; i++ {
			q := make([]float64, len(data[0]))
			for j, v := range data[rng.Intn(len(data))] {
				q[j] = v + 0.3*rng.NormFloat64()
			}
			queries = append(queries, q)
		}
		screened, multiRound := 0, 0
		for qi, q := range queries {
			for _, k := range []int{1, 50, n + 5} {
				for _, budget := range []int{1, 2, 3, 5, 0} {
					for _, filter := range []func(int32) bool{nil, everyThird} {
						label := fmt.Sprintf("%v q%d k=%d budget=%d filter=%v", kind, qi, k, budget, filter != nil)
						o := SearchOptions{Budget: budget, Filter: filter}
						want, wantSt, err := seqSearch(ix, q, k, o)
						if err != nil {
							t.Fatal(err)
						}
						var gotSt QueryStats
						o.Stats = &gotSt
						got, err := ix.Search(ctx, q, k, o)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, label, want, got)
						sameStats(t, label, gotSt, wantSt, kind != store.QuantNone)
						screened += gotSt.Screened
						if gotSt.Rounds > 1 {
							multiRound++
						}
						if qi == 0 && k == 50 && budget == 0 && filter == nil && got[49].Dist != 0 {
							t.Fatalf("%s: top-50 of the duplicated point is not all zeros: %+v", label, got[49])
						}
					}
				}
			}
			for bi, r := range []float64{0.5, 4, 12} {
				for _, filter := range []func(int32) bool{nil, everyThird} {
					label := fmt.Sprintf("%v ball q%d r=%v filter=%v", kind, qi, r, filter != nil)
					o := SearchOptions{Filter: filter, Budget: bi} // overflow threshold: derived, 1, 2
					want, wantSt, err := seqSearchBall(ix, q, r, o)
					if err != nil {
						t.Fatal(err)
					}
					var gotSt QueryStats
					o.Stats = &gotSt
					got, err := ix.SearchBall(ctx, q, r, o)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case (got == nil) != (want == nil):
						t.Fatalf("%s: got %v, want %v", label, got, want)
					case got != nil:
						sameResults(t, label, []Result{*want}, []Result{*got})
					}
					sameStats(t, label, gotSt, wantSt, kind != store.QuantNone)
					screened += gotSt.Screened
				}
			}
		}
		if multiRound == 0 {
			t.Fatalf("%v: no query took more than one round; the table is not exercising resumed rounds", kind)
		}
		if (kind != store.QuantNone) != (screened > 0) {
			t.Fatalf("%v: %d candidates screened over the whole table", kind, screened)
		}
	}
}

// TestOversizedKIsClamped: k is request data (any positive JSON
// integer), so no value of it may size an allocation or overflow the
// βn+k budget. Every entry point answers a huge k like k = everything
// there is.
func TestOversizedKIsClamped(t *testing.T) {
	ctx := context.Background()
	data := randData(300, 12, 77)
	for _, shards := range []int{1, 3} {
		eng, err := BuildEngine(data, Config{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1 << 40, math.MaxInt} {
			label := fmt.Sprintf("shards=%d k=%d", shards, k)
			var st QueryStats
			res, err := eng.Search(ctx, data[3], k, SearchOptions{Stats: &st})
			if err != nil || len(res) != len(data) || st.Verified != len(data) {
				t.Fatalf("%s: Search returned %d results (verified %d), err %v; want all %d", label, len(res), st.Verified, err, len(data))
			}
			all, err := eng.Search(ctx, data[3], len(data), SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, label, all, res)
			batch, err := eng.SearchBatch(ctx, data[:2], k, SearchOptions{})
			if err != nil || len(batch) != 2 || len(batch[1]) != len(data) {
				t.Fatalf("%s: SearchBatch: %d answers, err %v", label, len(batch), err)
			}
			pairs, err := eng.SearchPairs(ctx, k, SearchOptions{Budget: 500})
			if err != nil || len(pairs) == 0 || len(pairs) > len(data)*(len(data)-1)/2 {
				t.Fatalf("%s: SearchPairs: %d pairs, err %v", label, len(pairs), err)
			}
		}
	}
}
