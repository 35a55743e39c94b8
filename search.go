package pmlsh

import (
	"context"

	"repro/internal/core"
)

// This file is the unified per-query request API. One options-driven
// entry point per query family — Search (point ANN), SearchBatch
// (many point queries over one state), SearchPairs (closest pairs),
// SearchBall (ball cover): every per-query knob the paper
// parameterizes per query (the ratio c, the confidence-interval width
// α1 behind Eq. 10's T and β), plus result filtering, verification
// budgets and statistics sinks, travels as a functional option.

// SearchOption configures one query request. Options are evaluated in
// order; a later option overrides an earlier one for the same knob.
type SearchOption func(*core.SearchOptions)

// WithRatio sets the per-query approximation ratio c. The i-th result
// is, with constant probability, within c² of the exact i-th neighbor
// distance (within c for SearchPairs). Values <= 0 select the default
// 1.5; values in (0, 1] are rejected. Smaller ratios search wider:
// higher recall, more work.
func WithRatio(c float64) SearchOption {
	return func(o *core.SearchOptions) { o.C = c }
}

// WithAlpha1 sets the per-query confidence-interval parameter α₁ of
// the paper's Eq. 10, overriding Config.Alpha1 for this query only. It
// must lie in (0,1); smaller values widen the projected search radius:
// higher recall, more work. The candidate-fraction β is calibrated to
// depend only on the ratio c, so α₁ tunes the radius multiplier T
// alone.
func WithAlpha1(alpha1 float64) SearchOption {
	return func(o *core.SearchOptions) { o.Alpha1 = alpha1 }
}

// WithFilter restricts results to ids the predicate admits — the
// filtered-search scenario where only a subset of the corpus is
// eligible (per-user visibility, category constraints, tombstoned
// upstream state). The filter is pushed into the verification loop: a
// filtered-out candidate costs one predicate call but no exact
// distance computation, and the candidate budget βn+k counts only
// admitted points, so the engine keeps expanding until it has k
// admitted results (or the corpus is exhausted) instead of returning
// short. For SearchPairs a pair is admitted only when both ids are.
//
// The predicate must be fast, side-effect free and safe for concurrent
// use — SearchBatch calls it from multiple goroutines. It only ever
// sees live ids.
func WithFilter(admit func(id int32) bool) SearchOption {
	return func(o *core.SearchOptions) { o.Filter = admit }
}

// WithBudget overrides the query's derived verification budget, βn+k
// admitted candidates whose exact distance is computed before the query
// stops (for SearchBall, the βn overflow threshold). With Shards > 1,
// Search and SearchBall apply it, like the derived one, to each shard.
// Values <= 0 keep the derived budget. Lowering it trades recall for a
// hard latency cap; the paper's (c,k) guarantee assumes the derived value.
func WithBudget(candidates int) SearchOption {
	return func(o *core.SearchOptions) { o.Budget = candidates }
}

// WithStats directs Search or SearchBall to fill *st with the query's
// work statistics. Every field is exact for the query it describes —
// ProjectedDistComps included — no matter how many queries run
// concurrently. Ignored by SearchBatch (use WithBatchStats) and
// SearchPairs (use WithPairStats).
func WithStats(st *QueryStats) SearchOption {
	return func(o *core.SearchOptions) { o.Stats = st }
}

// WithBatchStats directs SearchBatch to fill st[i] with the statistics
// of query i. st must have at least as many entries as the query
// slice. Each entry is exact for its query even though the batch runs
// them concurrently.
func WithBatchStats(st []QueryStats) SearchOption {
	return func(o *core.SearchOptions) { o.BatchStats = st }
}

// WithPairStats directs SearchPairs to fill *st with the query's work
// statistics (exact per query).
func WithPairStats(st *CPStats) SearchOption {
	return func(o *core.SearchOptions) { o.PairStats = st }
}

// searchOptions folds a SearchOption list into the core options value.
func searchOptions(opts []SearchOption) core.SearchOptions {
	var o core.SearchOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Search answers one (c,k)-ANN request: up to k admitted points whose
// i-th member is, with constant probability, within c²·||q,o*_i|| of
// the query (o*_i the exact i-th admitted nearest neighbor). Results
// are sorted by distance, candidates at exactly the same distance by
// id. The zero-option call uses the default ratio:
//
//	res, err := index.Search(ctx, q, 10)                    // c = 1.5
//	res, err = index.Search(ctx, q, 10, WithRatio(2),
//	    WithFilter(func(id int32) bool { return visible[id] }),
//	    WithStats(&st))
//
// Cancellation is checked between the query's range-expansion rounds:
// a canceled context makes Search stop doing tree work and return
// ctx.Err(), and the index stays fully usable. A Search may verify on
// two goroutines while a core holds no other search; concurrent
// Searches, SearchBatch's workers and multi-shard fan-out, which
// already fill the cores, verify serially.
func (x *Index) Search(ctx context.Context, q []float64, k int, opts ...SearchOption) ([]Neighbor, error) {
	return x.ix.Search(ctx, q, k, searchOptions(opts))
}

// SearchBatch answers many (c,k)-ANN requests under one options value,
// fanning them across a worker pool of up to GOMAXPROCS goroutines.
// out[i] holds the neighbors of qs[i], identical to Search per query —
// only the scheduling differs. The batch loads every shard's view once
// up front, so all its queries observe the same index state, and
// mutations neither wait for the batch nor make it wait. Cancellation
// is checked between work items and between each query's expansion
// rounds; a canceled batch returns ctx.Err(). Otherwise the first
// query error, if any, is returned after all workers finish — and on
// any non-nil error the result slice is nil, never a partially filled
// batch.
func (x *Index) SearchBatch(ctx context.Context, qs [][]float64, k int, opts ...SearchOption) ([][]Neighbor, error) {
	return x.ix.SearchBatch(ctx, qs, k, searchOptions(opts))
}

// SearchPairs answers one (c,k)-closest-pair request: up to k admitted
// pairs of distinct indexed points such that, with constant
// probability, the i-th returned distance is within factor c of the
// exact i-th closest admitted pair distance. Results are sorted by
// distance; each unordered pair appears at most once; a filter admits
// a pair only when it admits both ids. k is clamped to the number of
// distinct pairs, and an index with fewer than two points returns no
// pairs. Cancellation is checked between rounds and between
// verification work items.
//
// The query runs a dual-branch self-join over the PM-tree in projected
// space.
func (x *Index) SearchPairs(ctx context.Context, k int, opts ...SearchOption) ([]Pair, error) {
	return x.ix.SearchPairs(ctx, k, searchOptions(opts))
}

// SearchBall answers one (r,c)-ball-cover request (Definition 3): if
// some admitted point lies within r of q it returns, with constant
// probability, an admitted point within c·r; if no admitted point lies
// within c·r it returns nil. r must be positive and finite (NaN and
// ±Inf are errors). WithStats fills per-query statistics (Rounds is
// always 1 — ball cover is a single range expansion).
func (x *Index) SearchBall(ctx context.Context, q []float64, r float64, opts ...SearchOption) (*Neighbor, error) {
	return x.ix.SearchBall(ctx, q, r, searchOptions(opts))
}
