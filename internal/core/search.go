package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
	"repro/internal/vec"
)

// This file is the unified per-query request surface. Every point
// query — (c,k)-ANN, batched ANN, (r,c)-ball-cover — and the
// closest-pair self-join (closestpair.go) run through one
// options-driven engine: Search, SearchBatch, SearchBall and
// SearchPairs take a context plus a SearchOptions value carrying the
// per-query tuning the paper parameterizes per query (the ratio c and
// the α1 that derive T and β of Eq. 10), a result filter, a
// verification-budget override and a stats sink.

// SearchOptions carries one query's request parameters. The zero value
// selects the defaults: ratio DefaultC, build-time α1, no filter, the
// derived βn+k verification budget, no statistics.
type SearchOptions struct {
	// C is the approximation ratio; <= 0 selects DefaultC. Values in
	// (0, 1] are rejected.
	C float64
	// Alpha1 overrides the confidence-interval parameter α1 for this
	// query (0 = the index's Config.Alpha1). Smaller values widen the
	// projected search radius: higher recall, more work.
	Alpha1 float64
	// Filter restricts results to ids it admits. It is applied while a
	// round's candidates are selected: a filtered-out candidate costs
	// no exact distance computation, and the verification budget counts
	// only admitted candidates. The filter must be fast, side-effect free
	// and safe for concurrent use (SearchBatch calls it from multiple
	// goroutines); it sees only live ids.
	Filter func(id int32) bool
	// Budget overrides the derived verification budget — βn+k admitted
	// candidates for Search/SearchBatch/SearchPairs, βn for SearchBall's
	// overflow threshold (<= 0 = derive). Lowering it trades recall for
	// speed; the (c,k) guarantee assumes the derived value.
	Budget int
	// Stats, when non-nil, receives the query's work statistics. Every
	// field is exact for the query it describes, ProjectedDistComps
	// included, no matter how many queries run concurrently. Ignored by
	// SearchBatch (use BatchStats) and SearchPairs (use PairStats).
	Stats *QueryStats
	// BatchStats, when non-nil, receives per-query statistics from
	// SearchBatch: entry i describes qs[i]. It must have at least as
	// many entries as the query slice.
	BatchStats []QueryStats
	// PairStats, when non-nil, receives SearchPairs statistics.
	PairStats *CPStats
}

// ctxErr reports the context's cancellation state. A nil context is
// tolerated (never cancels) purely as defense in depth — every
// internal caller passes a real context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// deriveParamsOpt is DeriveParams at a per-query α1, falling back to
// the index's cached build-time constants when alpha1 is zero or equal
// to the configured value. The κ calibration (see BuildFromStore)
// makes α2 — and with it β — depend only on c, so a per-query α1
// changes the projected-radius multiplier T alone: the override path
// delegates to DeriveParams for α2/β and replaces just T.
func (ix *Index) deriveParamsOpt(c, alpha1 float64) (Params, error) {
	if alpha1 == 0 || alpha1 == ix.cfg.Alpha1 {
		return ix.DeriveParams(c)
	}
	if alpha1 <= 0 || alpha1 >= 1 {
		return Params{}, fmt.Errorf("core: Alpha1 must be in (0,1), got %v", alpha1)
	}
	p, err := ix.DeriveParams(c)
	if err != nil {
		return Params{}, err
	}
	q, err := ix.chi.UpperQuantile(alpha1)
	if err != nil {
		return Params{}, fmt.Errorf("core: deriving t: %w", err)
	}
	p.T = math.Sqrt(q)
	p.Alpha1 = alpha1
	return p, nil
}

// Search answers one (c,k)-ANN request: up to k admitted points whose
// i-th member is, with constant probability, within c²·||q,o*_i|| of
// the query (o*_i the exact i-th admitted NN). Results are sorted by
// distance; two verified candidates at exactly the same distance rank
// by id, the smaller first. Cancellation is checked between
// range-expansion rounds, so a canceled request stops doing tree work
// and returns ctx.Err().
func (ix *Index) Search(ctx context.Context, q []float64, k int, o SearchOptions) ([]Result, error) {
	return ix.searchView(ctx, ix.view.Load(), q, k, o)
}

// reduceQuery maps a native-metric query into the internal L2 space
// (see package metric). The returned scale is what finishDist needs
// to convert internal squared distances back to the native metric:
// ‖q‖·S under InnerProduct, unused otherwise. Every metric refuses a
// query without a finite norm (finiteNorm).
func (ix *Index) reduceQuery(q []float64) ([]float64, float64, error) {
	switch ix.metric {
	case metric.L2:
		if !finiteNorm(q) {
			return nil, 0, fmt.Errorf("core: query has a NaN or infinite component, or a norm beyond float64")
		}
		return q, 0, nil
	case metric.Cosine:
		qi, err := normalizeRow(q)
		return qi, 0, err
	case metric.InnerProduct:
		n := vec.Norm(q)
		if n == 0 || math.IsInf(n, 0) || math.IsNaN(n) {
			return nil, 0, fmt.Errorf("core: inner-product query norm %v has no direction", n)
		}
		qi := make([]float64, len(q)+1) // augmented coordinate stays 0
		for i, v := range q {
			qi[i] = v / n
		}
		return qi, n * ix.mipScale, nil
	}
	return nil, 0, fmt.Errorf("core: metric %v is not a vector reduction", ix.metric)
}

// finishDist converts one internal squared distance to the reported
// native value. Every conversion is strictly increasing in d², so
// top-k contents, merge order and tie-breaks are decided in internal
// space and survive the conversion unchanged:
//
//	L2:           √d²
//	Cosine:       d²/2          (= 1 − cosθ for unit vectors)
//	InnerProduct: (d²/2 − 1)·‖q‖·S  (= −⟨q,x⟩, smaller = better)
func (ix *Index) finishDist(d2, qscale float64) float64 {
	switch ix.metric {
	case metric.Cosine:
		return d2 / 2
	case metric.InnerProduct:
		return (d2/2 - 1) * qscale
	}
	return math.Sqrt(d2)
}

// searchView is Algorithm 2 over one view of the index (nil under
// Jaccard, whose backend keeps its own state). It
// issues projected range queries range(q′, t·r) with r = r_min,
// c·r_min, c²·r_min, … and terminates as soon as either k admitted
// candidates lie within c·r in the original space, the admitted-
// candidate budget is exhausted, or every live point has been
// enumerated.
//
// A query is: project → one flat pass over the projected rows (or, when
// the first radius is under the tree's scan switch, one traversal) →
// select βn+k by buckets → verify four at a time. The radius-enlarging
// loop runs on a range enumerator that hands out each projected point
// at most once per query and carries only its previous radius between
// rounds: a round is one Nearest call, which raises the projected
// radius to t·r and selects, from the points that newly entered it —
// a threshold over the squared distances the flat pass kept — the
// admitted ones nearest in the projected space up to what is left of
// the budget: bare ids, nearer buckets first, nothing sorted. That is
// the set the old restart loop verified (its sorted, deduplicated range
// results cut at the budget), and the answer depends on the set alone:
// the top-k ranks by (distance, id) whatever the verification order,
// which TestStreamingMatchesRestartLoopReference pins.
//
// Queries are safe for concurrent use (per-query state is pooled) and
// may overlap Insert/Delete/Compact — everything below reads v and the
// index's immutable configuration, nothing a mutation writes. All
// statistics, ProjectedDistComps included, are exact per query: the
// enumerator counts its own metric evaluations, so overlapping queries
// never pollute each other's counters.
//
// It is also where a point query dispatches on the metric — Search and
// every SearchBatch worker come through here — so the Jaccard backend
// needs no batch loop of its own.
func (ix *Index) searchView(ctx context.Context, v *view, q []float64, k int, o SearchOptions) ([]Result, error) {
	if ix.metric == metric.Jaccard {
		return ix.searchJaccard(ctx, q, k, o)
	}
	var st QueryStats
	if len(q) != ix.ndim {
		return nil, fmt.Errorf("core: query has dimension %d, index expects %d", len(q), ix.ndim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	q, qscale, err := ix.reduceQuery(q)
	if err != nil {
		return nil, err
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, err
	}
	n := v.live()
	if n == 0 {
		if o.Stats != nil {
			*o.Stats = st
		}
		return nil, nil
	}
	// No query returns more than the n live points, and every candidate
	// is emitted once, so a larger k answers exactly like k = n; clamping
	// it keeps βn+k inside int and k out of every allocation size.
	k = min(k, n)
	needed := int(math.Ceil(params.Beta*float64(n))) + k
	if o.Budget > 0 {
		needed = o.Budget
	}

	// r_min: the radius at which F predicts βn + k points, shrunk a bit
	// (Section 4.5, "Selecting the Radius r of a Range Query").
	r := distQuantile(v.distCDF, float64(needed)/float64(n)) * ix.cfg.RMinShrink
	if r <= 0 {
		r = smallestPositiveDistance(v.distCDF)
	}

	sc := ix.getScratch()
	defer ix.putScratch(sc, n)
	en, err := ix.startEnum(sc, v.tree, q)
	if err != nil {
		return nil, err
	}

	// Verification keeps only the running top-k (squared distances; the
	// k square roots are deferred to the end) — see verifier.
	vf := verifier{
		view: v, q: q, blk: &sc.blk,
		k: k, top: make([]Result, 0, vec.PreallocCap(k, n)), bound: math.Inf(1),
	}
	scanned := 0 // points the enumerator has spent, admitted or not
	for {
		// Cancellation is checked between rounds: each round is one
		// selecting expansion plus one bounded verification sweep.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		st.Rounds++
		var inRadius int
		sc.ids, inRadius = en.Nearest(params.T*r, needed-vf.verified, o.Filter, sc.ids)
		scanned += inRadius
		vf.run(sc.ids)
		// Termination 1 (Alg. 2 line 9): enough admitted candidates.
		if vf.verified >= needed {
			break
		}
		// Termination 2 (Alg. 2 line 4): k admitted points within c·r.
		if cr := c * r; kthWithin(vf.top, k, cr*cr) {
			break
		}
		// Every live point streamed: nothing more to find (with a
		// filter, Verified can never reach the budget — the enumerator
		// running dry is what ends the query).
		if scanned >= n {
			break
		}
		// Validated inputs end on one of the tests above long before the
		// radius overflows; whatever slips past them must not spin here.
		if r *= c; math.IsInf(r, 1) {
			break
		}
	}
	top := vf.top
	st.Verified, st.Screened = vf.verified, vf.screened
	st.FinalRadius = r
	st.ProjectedDistComps = en.DistComps()
	for i := range top {
		top[i].Dist = ix.finishDist(top[i].Dist, qscale)
	}
	if o.Stats != nil {
		*o.Stats = st
	}
	return top, nil
}

// verifyWidth is how many admitted candidates the verifier evaluates per
// kernel call — the number of rows vec.SquaredL2BoundedGather reduces
// in lockstep.
const verifyWidth = 4

// verifyBlock holds one gathered block. It lives in the pooled query
// scratch: the kernel is reached through a dispatch variable, so
// stack-local buffers would be heap-allocated on every call.
type verifyBlock struct {
	ids  [verifyWidth]int32
	rows [verifyWidth]int32
	d2   [verifyWidth]float64
}

// verifier is the one exact-verification loop behind Search,
// SearchBatch and SearchBall: it streams a round's selected candidates
// — already admitted by the filter and cut at the budget — through
// quantized screen → exact distance → running top-k. Every one of them
// counts toward Verified.
//
// Candidates are verified a block at a time. Up to verifyWidth
// survivors of the screen are gathered, their distances are computed
// together against the bound as it stood when the block began, and the
// results are folded into the top-k against the live bound. The
// block-start bound can only be looser than the live one, so a lane
// returns either the exact distance — and the same comparison with the
// bound decides — or a partial sum above a bound that is already too
// large, rejected either way: the answer is element for element that of
// verifying one candidate at a time, while four rows' dependency
// chains and cache misses overlap.
type verifier struct {
	view  *view     // rows, id map and (unless nil) the screening codec
	q     []float64 // reduced (internal-space) query
	blk   *verifyBlock
	k     int
	top   []Result // best ≤ k so far by compareDistID; Dist holds squared distances
	bound float64  // top[k-1].Dist once top is full, +Inf before
	// verified and screened are QueryStats.Verified and .Screened.
	verified, screened int
}

// run verifies every candidate of ids.
func (v *verifier) run(ids []int32) {
	flat, rowOf, codec, blk := v.view.flat, v.view.rowOf, v.view.codec, v.blk
	v.verified += len(ids)
	for i := 0; i < len(ids); {
		n := 0
		for ; i < len(ids) && n < verifyWidth; i++ {
			id := ids[i]
			row := rowOf[id]
			// Quantized screen: once the top-k is full (a finite bound),
			// a lower bound above the k-th best distance proves the exact
			// distance is too (reject-only), so the full-precision row
			// need not be touched. The candidate still counts toward the
			// budget — screening changes memory traffic, never the answer.
			if codec != nil && v.bound < math.Inf(1) &&
				codec.QueryLowerBound(v.q, int(row), v.bound) > v.bound {
				v.screened++
				continue
			}
			blk.ids[n], blk.rows[n] = id, row
			n++
		}
		vec.SquaredL2BoundedGather(blk.d2[:n], v.q, flat, blk.rows[:n], v.bound)
		for j, d2 := range blk.d2[:n] {
			// At d2 == bound the id decides, inside insertCandidate.
			if len(v.top) < v.k || d2 <= v.bound {
				v.top = insertCandidate(v.top, Result{ID: blk.ids[j], Dist: d2}, v.k)
				if len(v.top) == v.k {
					v.bound = v.top[v.k-1].Dist
				}
			}
		}
	}
}

// SearchBatch answers many (c,k)-ANN requests under one options value,
// fanning them across a bounded worker pool (searchBatch; each worker
// reuses the per-query scratch pool); out[i] holds the neighbors of
// qs[i], identical to Search per query — only the scheduling differs.
// The batch loads the index's view once, so every query observes the
// same index state, whatever mutations land while it runs. (The Jaccard
// backend has no view: there each query sees the sets as they are when
// it reaches them.)
//
// Cancellation is checked between work items and between each query's
// expansion rounds: on cancellation workers stop claiming queries and
// SearchBatch returns ctx.Err(). Otherwise the first query error, if
// any, is returned after all workers finish. On any non-nil error the
// result slice is nil — never a partially filled batch, so a caller
// can't mistake an aborted batch for answered queries. o.BatchStats,
// when non-nil, receives exact per-query statistics (entry i for
// qs[i]); o.Stats is ignored (entries for unclaimed queries on an
// aborted batch are left zero).
func (ix *Index) SearchBatch(ctx context.Context, qs [][]float64, k int, o SearchOptions) ([][]Result, error) {
	v := ix.view.Load()
	return searchBatch(ctx, len(qs), o.BatchStats, func(i int, st *QueryStats) ([]Result, error) {
		oi := o
		oi.Stats = st
		return ix.searchView(ctx, v, qs[i], k, oi)
	})
}

// searchBatch is the one batch claim loop (Index.SearchBatch, and
// Engine.SearchBatch when it fans each query over several shards): up
// to GOMAXPROCS workers claim query indexes 0…n-1 with one atomic add
// each, checking ctx between items, and run one(i, st) — st is
// &stats[i], or nil when the caller asked for no statistics. stats may
// be longer than the batch. Any error yields a nil result slice:
// ctx.Err() when the context ended, else the lowest-index query error
// wrapped as "core: batch query i: …".
func searchBatch(ctx context.Context, n int, stats []QueryStats, one func(i int, st *QueryStats) ([]Result, error)) ([][]Result, error) {
	if n == 0 {
		return nil, nil
	}
	if stats != nil && len(stats) < n {
		return nil, fmt.Errorf("core: BatchStats has %d entries for %d queries", len(stats), n)
	}
	out := make([][]Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctxErr(ctx) != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var st *QueryStats
				if stats != nil {
					st = &stats[i]
				}
				out[i], errs[i] = one(i, st)
			}
		}()
	}
	wg.Wait()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	return out, nil
}

// SearchBall answers one (r,c)-ball-cover request (Definition 3,
// Algorithm 1): if some admitted point lies within r of q it returns,
// with constant probability, an admitted point within c·r; if no
// admitted point lies within c·r it returns nil. The radius must be a
// positive finite number: zero, a negative, NaN and ±Inf are refused (a
// ball that holds every point is a Search with k = 1). o.Stats, when
// non-nil, receives the query's statistics (Rounds is always 1 — the
// ball-cover query is a single range expansion).
func (ix *Index) SearchBall(ctx context.Context, q []float64, r float64, o SearchOptions) (*Result, error) {
	if ix.metric == metric.Jaccard {
		return ix.searchBallJaccard(ctx, q, r, o)
	}
	if ix.metric == metric.InnerProduct {
		return nil, fmt.Errorf("core: ball-cover queries are not defined for the inner-product metric (its \"distance\" is an unbounded negated inner product)")
	}
	if len(q) != ix.ndim {
		return nil, fmt.Errorf("core: query has dimension %d, index expects %d", len(q), ix.ndim)
	}
	if !(r > 0) || math.IsInf(r, 1) {
		return nil, fmt.Errorf("core: radius must be positive and finite, got %v", r)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, err
	}
	q, qscale, err := ix.reduceQuery(q)
	if err != nil {
		return nil, err
	}
	// The expansion radius lives in internal L2 space. Native cosine
	// distance r corresponds to internal distance √(2r) (d² = 2·(1−cos)),
	// so the range expansion and the CI condition use that radius while
	// the r·c comparison below stays in the native metric.
	ri := r
	if ix.metric == metric.Cosine {
		ri = math.Sqrt(2 * r)
	}
	v := ix.view.Load()
	n := v.live()
	betaN := int(math.Ceil(params.Beta * float64(n)))
	if o.Budget > 0 {
		betaN = o.Budget
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// One selecting expansion to t·r (a single-round query on the same
	// enumerator machinery as Search), every admitted candidate taken:
	// filtered-out candidates cost no exact distance and do not count
	// toward the overflow threshold, and there is no budget.
	sc := ix.getScratch()
	defer ix.putScratch(sc, n)
	en, err := ix.startEnum(sc, v.tree, q)
	if err != nil {
		return nil, err
	}
	sc.ids, _ = en.Nearest(params.T*ri, math.MaxInt, o.Filter, sc.ids)
	// The best admitted candidate is a top-1 under the shared verifier,
	// seeded with a sentinel (+Inf, id −1) that only a strictly closer
	// candidate displaces; the screen arms once a real best exists.
	vf := verifier{
		view: v, q: q, blk: &sc.blk,
		k: 1, top: []Result{{ID: -1, Dist: math.Inf(1)}}, bound: math.Inf(1),
	}
	vf.run(sc.ids)
	best, admitted := &vf.top[0], vf.verified
	if best.ID >= 0 {
		best.Dist = ix.finishDist(best.Dist, qscale)
	}
	if o.Stats != nil {
		*o.Stats = QueryStats{
			Rounds:             1,
			Verified:           admitted,
			Screened:           vf.screened,
			ProjectedDistComps: en.DistComps(),
			FinalRadius:        r,
		}
	}
	switch {
	case admitted >= betaN+1:
		// Lemma 5 case 1: candidate overflow guarantees a hit in B(q,cr).
		return best, nil
	case best.ID >= 0 && best.Dist <= c*r:
		return best, nil
	default:
		return nil, nil
	}
}
