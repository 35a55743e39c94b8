package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/pmtree"
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
// derived βn+k verification budget, no statistics. A Search with enough
// to verify may take one helper goroutine for its flat passes and
// verification while a core holds no other query; concurrent queries,
// SearchBatch's workers and multi-shard fan-out, which already fill the
// cores, run on their own goroutine.
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
// to the configured value. α2 — and with it β — depends on m and c, not
// on α1 (see alpha2Scale), so a per-query α1 changes the
// projected-radius multiplier T alone: the override path delegates to
// DeriveParams for α2/β and replaces just T.
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
// and returns ctx.Err(). A Search may share its work with one helper
// goroutine while a core holds no other query (startHelper).
func (ix *Index) Search(ctx context.Context, q []float64, k int, o SearchOptions) ([]Result, error) {
	return ix.searchView(ctx, ix.view.Load(), q, k, o, true)
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

// searchView is Algorithm 2 over one view of the index. It issues
// projected range queries range(q′, t·r) with r = r_min,
// c·r_min, c²·r_min, … and terminates as soon as either k admitted
// candidates lie within c·r in the original space, the admitted-
// candidate budget is exhausted, or every live point has been
// enumerated.
//
// A query is: project → one flat pass over the projected rows → select
// βn+k by buckets → verify four at a time. It reads the PM-tree's rows,
// never its structure, so it never pays the tree's bulk load. The
// radius-enlarging loop runs on a range enumerator that hands out each
// projected point at most once per query and carries only its previous
// radius between rounds: a round is one Nearest call, which raises the
// projected radius to t·r and selects, from the points that newly
// entered it — a threshold over the squared distances the flat pass
// kept — the admitted ones nearest in the projected space up to what is
// left of the budget: bare ids, nearer buckets first, nothing sorted.
// That is the set the old restart loop verified (its sorted,
// deduplicated range results cut at the budget), and the answer depends
// on the set alone: the top-k ranks by (distance, id) whatever the
// verification order, which TestStreamingMatchesRestartLoopReference
// pins.
//
// Queries are safe for concurrent use (per-query state is pooled) and
// may overlap Insert/Delete/Compact — everything below reads v and the
// index's immutable configuration, nothing a mutation writes. All
// statistics, ProjectedDistComps included, are exact per query: the
// enumerator counts its own metric evaluations, so overlapping queries
// never pollute each other's counters.
//
// Every call counts itself in searching for its duration; that count is
// the one rule for parallelism inside a query (startHelper). Only a
// query that is its caller's one piece of work — alone, as Search is —
// may take a helper; SearchBatch's workers and a multi-shard query's
// per-shard calls never do.
func (ix *Index) searchView(ctx context.Context, v *view, q []float64, k int, o SearchOptions, alone bool) ([]Result, error) {
	searching.Add(1)
	defer searching.Add(-1)
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
	// The helper wakes while the query projects and begins its flat pass.
	var h *queryHelper
	if alone {
		h = sc.startHelper(min(needed, n) * len(q))
		defer h.join()
	}
	en, err := ix.startEnum(sc, v.tree, q, false)
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
		sc.ids, inRadius = h.nearest(en, params.T*r, needed-vf.verified, o.Filter, sc.ids)
		scanned += inRadius
		h.verify(&vf, sc.ids)
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
	st.Verified = vf.verified
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
	rows [verifyWidth]int32
	d2   [verifyWidth]float64
}

// verifier is the one exact-verification loop behind Search,
// SearchBatch and SearchBall: it streams a round's selected candidates
// — already admitted by the filter and cut at the budget — through
// exact distance → running top-k. Every one of them counts toward
// Verified.
//
// Candidates are verified a block at a time. The next verifyWidth of
// them are gathered, their distances are computed together against the
// bound as it stood when the block began, and the results are folded
// into the top-k against the live bound. The block-start bound can
// only be looser than the live one, so a lane
// returns either the exact distance — and the same comparison with the
// bound decides — or a partial sum above a bound that is already too
// large, rejected either way: the answer is element for element that of
// verifying one candidate at a time, while four rows' dependency
// chains and cache misses overlap.
type verifier struct {
	view     *view     // rows and id map
	q        []float64 // reduced (internal-space) query
	blk      *verifyBlock
	k        int
	top      []Result // best ≤ k so far by metrics.CompareNeighbors; Dist holds squared distances
	bound    float64  // top[k-1].Dist once top is full, +Inf before
	verified int      // QueryStats.Verified
}

// run verifies every candidate of ids.
func (v *verifier) run(ids []int32) {
	flat, rowOf, blk := v.view.flat, v.view.rowOf, v.blk
	v.verified += len(ids)
	for i := 0; i < len(ids); i += verifyWidth {
		blkIDs := ids[i:min(i+verifyWidth, len(ids))]
		n := len(blkIDs)
		for j, id := range blkIDs {
			blk.rows[j] = rowOf[id]
		}
		vec.SquaredL2BoundedGather(blk.d2[:n], v.q, flat, blk.rows[:n], v.bound)
		for j, d2 := range blk.d2[:n] {
			// At d2 == bound the id decides, inside insertCandidate.
			if len(v.top) < v.k || d2 <= v.bound {
				v.top = insertCandidate(v.top, Result{ID: blkIDs[j], Dist: d2}, v.k)
				if len(v.top) == v.k {
					v.bound = v.top[v.k-1].Dist
				}
			}
		}
	}
}

// verifyClaim is how many candidates a worker of a shared verification
// takes from the round's cursor at a time: eight blocks, one atomic add
// per 32 exact distances.
const verifyClaim = 8 * verifyWidth

// splitMinWork is the least verification budget, candidates ×
// dimension, for which a query takes a helper, decided when the query
// starts. A new helper reaches an idle core 60–100 µs after its go
// statement (BenchmarkHelperStart/cold), so a query with less to verify
// ends sooner on the caller alone; on two cores BenchmarkVerifySplit
// first wins at every d at this work, and loses or breaks even at 2^18.
// A lingering helper is taken over in ~1 µs (BenchmarkHelperStart/warm),
// but the gate is sized by the cold start, which a query pays when no
// query of its scratch came just before it.
const splitMinWork = 3 << 17

// helperLinger is how long a joined helper waits for the next query of
// its scratch before its goroutine returns. It outlasts a closed-loop
// caller's turnaround between Searches, a few µs, and stays near the
// cold start it saves (p50 ~80 µs, p99 0.2–1.5 ms); a query no successor
// claims wastes up to this much CPU. On the repository benchmark's
// knn-d768 (2-vCPU guest, 10 s windows, seeds 1–6) 20 µs lifted qps by
// a median 17% with p99 better in 4 of 6 pairs; 100 µs by 28%, p99 and
// p50 better in all 6, CPU per query down 10%.
const helperLinger = 100 * time.Microsecond

// searching counts this process's goroutines running a query —
// searchView, SearchBall, SearchPairs — or a query's helper: the cores
// its queries hold.
var searching atomic.Int64

// helperStarts counts the go statements startHelper has made.
var helperStarts atomic.Int64

// startHelper gives the query its one helper (queryHelper) when its
// verification budget, candidates × dimension, reaches splitMinWork and
// a core holds no query: searching, the helper included, stays within
// GOMAXPROCS. So a caller alone on the cores takes one, and Searches
// that share them with other queries — HTTP handlers on one shard, a
// Search beside a SearchBall or SearchPairs — do not. The helper is the
// one still lingering in the scratch from its last query, taken over by
// one compare-and-swap, or else a new goroutine. It returns nil when the
// query takes no helper; a nil helper runs every step on the caller. One
// helper is what BenchmarkVerifySplit measured; more are not started.
func (sc *queryScratch) startHelper(work int) *queryHelper {
	if work < splitMinWork {
		return nil
	}
	if searching.Add(1) > int64(runtime.GOMAXPROCS(0)) {
		searching.Add(-1)
		return nil
	}
	h := &sc.help
	if h.run == nil {
		h.run = h.serve
	}
	h.en, h.owed = &sc.pmEnum, 0
	h.work.Store(phaseWord(phaseIdle, 0))
	h.done.Store(0)
	h.left.Store(false)
	if !h.state.CompareAndSwap(helperLingering, helperBusy) {
		h.state.Store(helperBusy)
		helperStarts.Add(1)
		go h.run()
	}
	return h
}

// queryHelper is a query's helper goroutine and what it shares with the
// caller. The helper starts with the query and, once it runs, takes
// whatever work the query has open: chunks of a round's flat pass, then
// claims of its verification, in every round, until the query joins it.
// Joined, it lingers for helperLinger, holding no query and not counted
// in searching, so that the next query of its scratch takes it over
// instead of waking a new goroutine; then it returns, whether or not the
// pool still holds the scratch. It lives in the pooled query scratch
// with everything it touches — phase word, buffers, goroutine body — so
// a warmed Search allocates its answer and nothing else, helped or not.
//
// The caller opens each step as a phase of numbered units (split) and
// both claim units from one word, which holds the phase's kind, its
// unit count and the next unit: a claim that lands after the caller has
// opened the next phase is a claim of that phase, never a stale one.
// The helper polls the word only when nothing is left to claim, so the
// line is hot for one of them at a time; what the helper writes while
// working sits on lines of its own.
type queryHelper struct {
	_     [64]byte
	work  atomic.Uint64 // the open phase (phaseWord); stopped at the join
	_     [64]byte
	done  atomic.Int64 // units the helper has finished this query
	left  atomic.Bool  // the helper has left this query
	state atomic.Int32 // helperGone, helperBusy or helperLingering
	_     [64]byte

	owed int64 // units the helper has claimed this query; the caller's
	en   *pmtree.RangeEnumerator
	ids  []int32  // a verification phase's candidates
	vf   verifier // the helper's, per round; cleared at the join, so the pool pins no view
	blk  verifyBlock
	top  []Result // vf.top's backing array, kept across queries
	run  func()   // the goroutine body, made once: a closure per go statement would allocate
}

// Phase kinds, the top two bits of the phase word; the unit count and
// the next unit to claim take 31 bits each, far above any chunk or
// claim count of an index addressed by int32 ids.
const (
	phaseIdle = iota
	phaseScan
	phaseVerify
	phaseStop
)

// Helper states: no goroutine, one serving a query, one waiting to be
// taken over.
const (
	helperGone = iota
	helperBusy
	helperLingering
)

func phaseWord(kind, units int) uint64 { return uint64(kind)<<62 | uint64(units)<<31 }

// unpack splits a phase word into its kind, unit count and next unit.
func unpack(w uint64) (kind, units, next int) {
	return int(w >> 62), int(w >> 31 & (1<<31 - 1)), int(w & (1<<31 - 1))
}

// drain is the helper's loop: claim a unit of the open phase, do it,
// count it done; wait while nothing is left to claim; return when the
// query stops it.
func (h *queryHelper) drain() {
	for {
		kind, units, next := unpack(h.work.Load())
		if kind == phaseStop {
			return
		}
		if next >= units {
			runtime.Gosched()
			continue
		}
		if kind, units, next = unpack(h.work.Add(1) - 1); next < units {
			h.unit(kind, next, 1, &h.vf)
			h.done.Add(1)
		}
	}
}

// serve is the helper goroutine's body: serve a query, then linger until
// the next one takes it over or helperLinger runs out. It lingers before
// it reports leaving, so a caller that joins and starts its next query
// at once finds it lingering, not still busy.
func (h *queryHelper) serve() {
	for {
		h.drain()
		h.state.Store(helperLingering)
		h.left.Store(true)
		for t := time.Now(); h.state.Load() == helperLingering; runtime.Gosched() {
			if time.Since(t) > helperLinger && h.state.CompareAndSwap(helperLingering, helperGone) {
				return
			}
		}
	}
}

// unit does unit i of a phase as the given worker (0 the caller, 1 the
// helper), verifying into vf.
func (h *queryHelper) unit(kind, i, worker int, vf *verifier) {
	if kind == phaseScan {
		h.en.Resolve(i, worker)
		return
	}
	lo := i * verifyClaim
	vf.run(h.ids[lo:min(lo+verifyClaim, len(h.ids))])
}

// split opens a phase of units, claims them beside the helper until none
// is left, and returns once the ones the helper claimed are done too.
func (h *queryHelper) split(kind, units int, vf *verifier) {
	h.work.Store(phaseWord(kind, units))
	mine := 0
	for {
		_, _, i := unpack(h.work.Add(1) - 1)
		if i >= units {
			break
		}
		h.unit(kind, i, 0, vf)
		mine++
	}
	h.owed += int64(units - mine)
	for h.done.Load() < h.owed {
		runtime.Gosched()
	}
}

// nearest is en.Nearest, the round's chunks shared with the helper.
func (h *queryHelper) nearest(en *pmtree.RangeEnumerator, r float64, limit int, admit func(int32) bool, out []int32) ([]int32, int) {
	if h == nil {
		return en.Nearest(r, limit, admit, out)
	}
	h.split(phaseScan, en.Begin(r), nil)
	return en.Cut(limit, admit, out)
}

// verify leaves vf exactly as vf.run(ids) would, sharing the claims with
// the helper. Each keeps its own top-k and bound; the helper's starts
// from vf's bound, which is the round's current top-k once that is
// full, and is merged into vf by metrics.CompareNeighbors when the
// round's claims are done. The answer is the serial one because the
// top-k of a set does not depend on how it is partitioned, and a
// worker's kernel never abandons a member of the set's top-k: a
// worker's bound is the k-th distance of k members of the set, or vf's,
// never below the set's final k-th.
func (h *queryHelper) verify(vf *verifier, ids []int32) {
	if h == nil {
		vf.run(ids)
		return
	}
	h.ids = ids
	h.vf = verifier{view: vf.view, q: vf.q, blk: &h.blk, k: vf.k, top: h.top[:0], bound: vf.bound}
	h.split(phaseVerify, (len(ids)+verifyClaim-1)/verifyClaim, vf)
	vf.verified += h.vf.verified
	for _, r := range h.vf.top {
		vf.top = insertCandidate(vf.top, r, vf.k)
	}
	if len(vf.top) == vf.k {
		vf.bound = vf.top[vf.k-1].Dist
	}
	h.top = h.vf.top[:0]
}

// join stops the helper, waits for it to leave the query and gives its
// core back. Every query that took a helper joins it before it returns;
// no helper works past its join.
func (h *queryHelper) join() {
	if h == nil {
		return
	}
	h.work.Store(phaseWord(phaseStop, 0))
	for !h.left.Load() {
		runtime.Gosched()
	}
	searching.Add(-1)
	h.en, h.ids, h.vf = nil, nil, verifier{}
}

// SearchBatch answers many (c,k)-ANN requests under one options value,
// fanning them across a bounded worker pool (searchBatch; each worker
// reuses the per-query scratch pool); out[i] holds the neighbors of
// qs[i], identical to Search per query — only the scheduling differs.
// The batch loads the index's view once, so every query observes the
// same index state, whatever mutations land while it runs.
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
		return ix.searchView(ctx, v, qs[i], k, oi, false)
	})
}

// searchBatch is the one batch claim loop (Index.SearchBatch and
// Engine.SearchBatch): up to GOMAXPROCS workers claim query indexes
// 0…n-1 with one atomic add each, checking ctx between items, and run
// one(i, st) — st is &stats[i], or nil when the caller asked for no
// statistics. stats may be longer than the batch. Any error yields a
// nil result slice: ctx.Err() when the context ended, else the
// lowest-index query error wrapped as "core: batch query i: …".
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
// ball-cover query is a single range expansion). The query runs on the
// caller's goroutine alone and counts itself in searching while it does.
func (ix *Index) SearchBall(ctx context.Context, q []float64, r float64, o SearchOptions) (*Result, error) {
	searching.Add(1)
	defer searching.Add(-1)
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
	// A near-duplicate radius meets few leaves and descends the tree,
	// bulk loading it if no query has; a wider one reads every row.
	en, err := ix.startEnum(sc, v.tree, q, params.T*ri < v.tree.ScanRadius())
	if err != nil {
		return nil, err
	}
	sc.ids, _ = en.Nearest(params.T*ri, math.MaxInt, o.Filter, sc.ids)
	// The best admitted candidate is a top-1 under the shared verifier,
	// seeded with a sentinel (+Inf, id −1) that only a strictly closer
	// candidate displaces.
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
