package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/metrics"
)

// Engine queries. With one shard a query is that shard's own — answers,
// statistics and errors are element-wise identical to the bare Index,
// and nothing is merged. With N > 1 the query loads every shard's view
// once, fans out across them and merges: each shard answers over
// its own candidate budget (β·n_s + k admitted verifications), result
// ids are translated to global ids, the merged top-k keeps the k
// smallest by (distance, id), and per-shard statistics are summed
// (Rounds and Verified are totals across shards; FinalRadius is the
// largest per-shard final radius). o.Budget, when set, caps each
// shard's verifications separately.

// Search answers one (c,k)-ANN request (see Index.Search). The call
// never blocks on mutations: it reads the views it loaded while writers
// prepare the next ones.
func (e *Engine) Search(ctx context.Context, q []float64, k int, o SearchOptions) ([]Result, error) {
	if len(e.shards) == 1 {
		sh := e.shards[0]
		return sh.searchView(ctx, sh.load(), q, k, o, true)
	}
	return e.fanSearch(ctx, q, k, o, e.views(), true)
}

// shardOptions narrows an options value to one shard: statistics sinks
// detach (the caller merges) and the filter sees global ids.
func (e *Engine) shardOptions(o SearchOptions, s int) SearchOptions {
	oi := o
	oi.Stats = nil
	oi.BatchStats = nil
	oi.PairStats = nil
	if o.Filter != nil {
		n := int32(len(e.shards))
		f := o.Filter
		oi.Filter = func(local int32) bool { return f(local*n + int32(s)) }
	}
	return oi
}

// views loads every shard's current view. Each is internally consistent
// (a mutation is visible in full or not at all); a query overlapping
// mutations to several shards may see some shards before and some after
// — the per-operation linearization operations on disjoint ids get
// anywhere. A set shard has no view; its entry is nil.
func (e *Engine) views() []*view {
	views := make([]*view, len(e.shards))
	for s, sh := range e.shards {
		views[s] = sh.load()
	}
	return views
}

// fanSearch runs one query against every shard's view and merges the
// per-shard top-k lists and statistics into o.Stats — the shards
// concurrently when concurrent is set (single queries), serially
// otherwise (batch workers already fill the cores). Each shard's
// searchView counts as a running query and takes no helper: the shards'
// goroutines are the query's parallelism. Errors surface in shard order,
// so a request invalid for every shard (bad dimension, k <= 0) reports
// shard 0's error, which is word-for-word the 1-shard error. One shard
// answers alone, into o.Stats itself.
func (e *Engine) fanSearch(ctx context.Context, q []float64, k int, o SearchOptions, views []*view, concurrent bool) ([]Result, error) {
	n := len(e.shards)
	if n == 1 {
		return e.shards[0].searchView(ctx, views[0], q, k, o, false)
	}
	per := make([][]Result, n)
	sts := make([]QueryStats, n)
	errs := make([]error, n)
	run := func(s int) {
		oi := e.shardOptions(o, s)
		oi.Stats = &sts[s]
		per[s], errs[s] = e.shards[s].searchView(ctx, views[s], q, k, oi, false)
	}
	if concurrent {
		var wg sync.WaitGroup
		wg.Add(n)
		for s := 0; s < n; s++ {
			go func(s int) {
				defer wg.Done()
				run(s)
			}(s)
		}
		wg.Wait()
	} else {
		for s := 0; s < n; s++ {
			run(s)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if o.Stats != nil {
		*o.Stats = mergeQueryStats(sts)
	}
	return e.mergeTopK(per, k), nil
}

// mergeTopK translates per-shard results to global ids and keeps the k
// smallest by (distance, id). Shards answer in sorted order, so the
// merged order is the order a single index over the union would have
// produced for the same candidate set. nil in (all shards empty) stays
// nil out.
func (e *Engine) mergeTopK(per [][]Result, k int) []Result {
	n := int32(len(e.shards))
	var out []Result
	for s, rs := range per {
		for _, r := range rs {
			out = append(out, Result{ID: r.ID*n + int32(s), Dist: r.Dist})
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, metrics.CompareNeighbors)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// mergeQueryStats sums per-shard statistics; FinalRadius, a radius
// rather than a count, merges as the maximum.
func mergeQueryStats(sts []QueryStats) QueryStats {
	var out QueryStats
	for _, st := range sts {
		out.Rounds += st.Rounds
		out.Verified += st.Verified
		out.ProjectedDistComps += st.ProjectedDistComps
		if st.FinalRadius > out.FinalRadius {
			out.FinalRadius = st.FinalRadius
		}
	}
	return out
}

// SearchBatch answers many (c,k)-ANN requests (see Index.SearchBatch;
// the same contract holds: results nil on any error, per-query
// statistics in o.BatchStats). All queries in the batch observe the
// same set of views, loaded once. The worker pool parallelizes across
// queries; each worker fans its query over the shards serially.
func (e *Engine) SearchBatch(ctx context.Context, qs [][]float64, k int, o SearchOptions) ([][]Result, error) {
	views := e.views()
	return searchBatch(ctx, len(qs), o.BatchStats, func(i int, st *QueryStats) ([]Result, error) {
		oi := o
		oi.Stats = st
		return e.fanSearch(ctx, qs[i], k, oi, views, false)
	})
}

// SearchBall answers one (r,c)-ball-cover request (see
// Index.SearchBall). Each shard runs the single-round ball query over
// its partition; the merged answer is the closest per-shard hit
// (ties to the smaller global id). The union of per-shard guarantees
// preserves Lemma 5: a point within r lies in some shard, whose query
// returns a point within c·r with the scheme's probability.
func (e *Engine) SearchBall(ctx context.Context, q []float64, r float64, o SearchOptions) (*Result, error) {
	if len(e.shards) == 1 {
		return e.shards[0].SearchBall(ctx, q, r, o)
	}
	n := len(e.shards)
	per := make([]*Result, n)
	sts := make([]QueryStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func(s int) {
			defer wg.Done()
			oi := e.shardOptions(o, s)
			oi.Stats = &sts[s]
			per[s], errs[s] = e.shards[s].SearchBall(ctx, q, r, oi)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var best *Result
	for s, res := range per {
		if res == nil {
			continue
		}
		g := Result{ID: res.ID*int32(n) + int32(s), Dist: res.Dist}
		if best == nil || metrics.CompareNeighbors(g, *best) < 0 {
			b := g
			best = &b
		}
	}
	if o.Stats != nil {
		*o.Stats = mergeQueryStats(sts)
	}
	return best, nil
}
