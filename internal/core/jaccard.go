package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/minhash"
)

// Jaccard backend: an Index whose metric is Jaccard holds no store,
// projection or tree — just the MinHash band-LSH index — and every
// public method delegates here. Sets cross the engine's []float64
// surfaces as tokens encoded in float64s (exact for non-negative
// integers up to 2^53), which is what lets the sharded Engine, the
// WAL and the HTTP layer serve set data unchanged.

// maxToken is the largest set token the float64 bridge can carry
// exactly (every integer up to 2^53 has an exact float64).
const maxToken = uint64(1) << 53

// BuildSets constructs a Jaccard index over uint64-token sets.
// cfg.Metric must be metric.Jaccard; the MinHash* fields size the
// band layout (see Config). Input slices are not retained.
func BuildSets(sets [][]uint64, cfg Config) (*Index, error) {
	if cfg.Metric != metric.Jaccard {
		return nil, fmt.Errorf("core: BuildSets serves the jaccard metric, not %v; use Build for vector data", cfg.Metric)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: BuildSets requires a non-empty dataset")
	}
	mh, err := minhash.Build(sets, minhash.Config{
		Bands:     cfg.MinHashBands,
		Rows:      cfg.MinHashRows,
		Seed:      cfg.Seed,
		Threshold: cfg.MinHashThreshold,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Index{cfg: cfg, metric: metric.Jaccard, mh: mh}, nil
}

// tokensOf decodes a float64-bridged token set. Every element must be
// a non-negative integer at most 2^53 — beyond that float64 cannot
// carry the token exactly and the bridge would silently corrupt it.
func tokensOf(q []float64) ([]uint64, error) {
	out := make([]uint64, len(q))
	for i, v := range q {
		if v < 0 || v != math.Trunc(v) || v > float64(maxToken) {
			return nil, fmt.Errorf("core: jaccard sets carry tokens as float64s: element %d (%v) is not an integer in [0, 2^53]", i, v)
		}
		out[i] = uint64(v)
	}
	return out, nil
}

// minhashOpt maps the shared SearchOptions onto the MinHash backend's
// knobs. C and Alpha1 have no meaning there (the b×r band layout
// plays the role of the confidence parameters) and are ignored.
func minhashOpt(o SearchOptions) minhash.SearchOpt {
	return minhash.SearchOpt{Filter: o.Filter, Budget: o.Budget}
}

// jaccardQueryStats fills the engine's QueryStats from a MinHash
// query: a band-LSH lookup is a single round, Verified counts exact
// Jaccard rescores, and the projected/screening counters stay zero —
// there is no projected space and no quantized screen.
func jaccardQueryStats(st minhash.Stats) QueryStats {
	return QueryStats{Rounds: 1, Verified: st.Verified}
}

// insertJaccard is Insert for the Jaccard backend.
func (ix *Index) insertJaccard(p []float64) (int32, error) {
	set, err := tokensOf(p)
	if err != nil {
		return 0, err
	}
	id, err := ix.mh.Insert(set)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return id, nil
}

// searchJaccard is Search for the Jaccard backend: candidates from
// band-bucket collisions, exact-Jaccard rescore, threshold filter,
// distances reported as 1 − J.
func (ix *Index) searchJaccard(ctx context.Context, q []float64, k int, o SearchOptions) ([]Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	set, err := tokensOf(q)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	nb, st, err := ix.mh.Search(set, k, minhashOpt(o))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if o.Stats != nil {
		*o.Stats = jaccardQueryStats(st)
	}
	out := make([]Result, len(nb))
	for i, n := range nb {
		out[i] = Result{ID: n.ID, Dist: n.Dist}
	}
	return out, nil
}

// searchBallJaccard is SearchBall for the Jaccard backend: a
// heuristic (no χ² machinery backs the (r,c)-BC guarantee here) that
// returns the closest band-collision candidate within distance c·r,
// or nil when none collides that close.
func (ix *Index) searchBallJaccard(ctx context.Context, q []float64, r float64, o SearchOptions) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("core: jaccard distance radius must be in [0,1], got %v", r)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	set, err := tokensOf(q)
	if err != nil {
		return nil, err
	}
	nb, st, err := ix.mh.Search(set, 1, minhashOpt(o))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if o.Stats != nil {
		*o.Stats = jaccardQueryStats(st)
	}
	if len(nb) == 0 || nb[0].Dist > c*r {
		return nil, nil
	}
	return &Result{ID: nb[0].ID, Dist: nb[0].Dist}, nil
}
