package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
	"repro/internal/pmtree"
	"repro/internal/vec"
)

// Closest-pair search: the journal extension of PM-LSH generalizes the
// tree-over-projections design from (c,k)-ANN to (c,k)-approximate
// closest-pair search. The engine runs a dual-branch (self-join)
// traversal over the PM-tree in projected space (pmtree.PairEnumerator),
// consuming candidate pairs in increasing projected distance, verifying
// each with its exact distance in the contiguous store, and terminating
// on the confidence-interval radius condition.
//
// Mirroring Algorithm 2's radius selection, each round caps the
// self-join at projected radius t·r: a pair at original distance <= r
// projects within t·r with probability 1−α1 (Lemma 3's interval). The
// initial r comes from the empirical pair-distance distribution F — the
// radius at which F predicts about βn + k pairs — and is enlarged to
// c·r whenever a round ends before the result is settled. A round
// settles once the k-th best exact distance r_k satisfies r_k <= c·r:
// every unseen pair then lies, with constant probability, above r_k/c,
// making the result a (c,k)-approximation. The βn + k verification
// budget mirrors Algorithm 2's second termination. An uncapped
// enumeration would degenerate on self-joins: until k pairs are
// verified there is no distance to prune with, and the traversal would
// materialize a large fraction of all O(n²) pairs.

// Pair is one returned closest pair: two dataset ids (I < J) and their
// exact original-space distance.
type Pair struct {
	I, J int32
	Dist float64
}

// CPStats reports the work one closest-pair query performed.
type CPStats struct {
	// Rounds is the number of capped self-joins issued (like the KNN
	// engine, one or two rounds are typical).
	Rounds int
	// Enumerated is the number of candidate pairs consumed from the
	// projected-space self-join, including pairs re-enumerated by later
	// rounds.
	Enumerated int
	// Verified is the number of unique pairs admitted to verification.
	// When quantized screening is on (Config.Quantize), pairs rejected
	// by the screen still count here — Verified measures candidate-set
	// size, which screening does not change.
	Verified int
	// Screened is the number of admitted pairs whose exact distance
	// computation was skipped because the quantized lower bound already
	// exceeded the current k-th best pair distance. Always 0 without
	// Config.Quantize. Screened ≤ Verified.
	Screened int
	// ProjectedDistComps is the number of projected-space metric
	// evaluations inside the PM-tree traversal. Like the KNN statistic,
	// it is exact for the query it describes — the pair enumerator
	// counts its own evaluations — no matter how many queries run
	// concurrently.
	ProjectedDistComps int64
}

// SearchPairs answers one (c,k)-closest-pair request under the unified
// options surface: up to k admitted pairs of distinct indexed points
// such that, with constant probability, the i-th returned distance is
// within factor c of the exact i-th closest admitted pair distance.
// A filter admits a pair only when it admits both ids; filtered-out
// pairs cost no exact distance and do not count toward the
// verification budget. Cancellation is checked between rounds and
// between verification work items (every candidate batch), so a
// canceled request stops doing tree work and returns ctx.Err().
// o.PairStats, when non-nil, receives exact per-query statistics;
// o.Parallel fans candidate verification across a worker pool.
func (ix *Index) SearchPairs(ctx context.Context, k int, o SearchOptions) ([]Pair, error) {
	if ix.metric == metric.Jaccard {
		return ix.searchPairsJaccard(ctx, k, o)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s, err := ix.cpSetup(k, o)
	if err != nil {
		return nil, err
	}
	var st CPStats
	if s == nil { // trivially empty: fewer than two indexed points
		if o.PairStats != nil {
			*o.PairStats = st
		}
		return nil, nil
	}
	var res []Pair
	if o.Parallel {
		res, err = ix.searchPairsParallel(ctx, s, o.Filter, &st)
	} else {
		res, err = ix.searchPairsSerial(ctx, s, o.Filter, &st)
	}
	if err != nil {
		return nil, err
	}
	if o.PairStats != nil {
		*o.PairStats = st
	}
	return res, nil
}

// searchPairsSerial is the serial engine behind SearchPairs: rounds of
// capped self-joins at projected radius t·r, r ← c·r, each candidate
// verified as it streams off the enumerator.
func (ix *Index) searchPairsSerial(ctx context.Context, s *cpParams, filter func(int32) bool, st *CPStats) ([]Pair, error) {
	// top's Dist holds squared distances until return; bound is the
	// current k-th best of them.
	top := make([]Pair, 0, vec.PreallocCap(s.k, s.maxVerified))
	bound := math.Inf(1)
	seen := make(map[[2]int32]bool, vec.PreallocCap(s.budget, s.maxPairs))
	codec := ix.data.Codec() // nil unless Config.Quantize is set
	r := s.r0
	var pdc int64
rounds:
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		st.Rounds++
		en := s.newRound(r, len(top), bound)
		for {
			// Cancellation between verification work items, amortized
			// over a batch of enumerator pulls.
			if st.Enumerated%cpBatchSize == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			cand, ok := en.Next()
			if !ok {
				break
			}
			st.Enumerated++
			key := [2]int32{cand.ID1, cand.ID2}
			if seen[key] {
				continue
			}
			seen[key] = true
			if filter != nil && !(filter(cand.ID1) && filter(cand.ID2)) {
				continue
			}
			st.Verified++
			// Quantized screen (reject-only, see verifier.run): with the
			// top-k full, a pair lower bound above the k-th best distance
			// skips the exact computation without changing the answer.
			r1, r2 := int(ix.rowOf[cand.ID1]), int(ix.rowOf[cand.ID2])
			if codec != nil && len(top) == s.k &&
				codec.PairLowerBound(r1, r2, bound) > bound {
				st.Screened++
			} else {
				d2 := vec.SquaredL2Bounded(ix.data.Row(r1), ix.data.Row(r2), bound)
				if len(top) < s.k || d2 < bound {
					top = insertPair(top, Pair{I: cand.ID1, J: cand.ID2, Dist: d2}, s.k)
					if len(top) == s.k {
						bound = top[s.k-1].Dist
						en.SetCutoff(s.projCutoff(bound))
					}
				}
			}
			// Termination 2: enough unique admitted pairs verified.
			if st.Verified >= s.budget && len(top) == s.k {
				pdc += en.DistComps()
				break rounds
			}
			// Every admitted pair verified: nothing left the filter
			// would let through (without a filter this coincides with
			// the enumerator running dry).
			if st.Verified >= s.maxVerified {
				break
			}
		}
		pdc += en.DistComps()
		if s.settled(top, bound, r, len(seen), st.Verified) {
			break
		}
		r *= s.c
	}
	st.ProjectedDistComps = pdc
	finishPairs(top, ix.metric)
	return top, nil
}

// cpBatchSize is how many candidate pairs searchPairsParallel pulls
// from the (serial) enumerator before fanning their verification across
// the worker pool.
const cpBatchSize = 256

// searchPairsParallel is the parallel engine behind SearchPairs: the
// projected-space enumeration stays serial, but each batch of admitted
// candidate pairs is verified concurrently against the contiguous
// store. Cancellation is checked between batches.
func (ix *Index) searchPairsParallel(ctx context.Context, s *cpParams, filter func(int32) bool, st *CPStats) ([]Pair, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > cpBatchSize {
		workers = cpBatchSize
	}
	top := make([]Pair, 0, vec.PreallocCap(s.k, s.maxVerified))
	bound := math.Inf(1)
	seen := make(map[[2]int32]bool, vec.PreallocCap(s.budget, s.maxPairs))
	cands := make([]pmtree.PairCandidate, 0, cpBatchSize)
	d2s := make([]float64, cpBatchSize)
	scr := make([]bool, cpBatchSize) // scr[i]: cands[i] was screened, d2s[i] is not exact
	codec := ix.data.Codec()         // nil unless Config.Quantize is set
	r := s.r0
	var pdc int64
rounds:
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		st.Rounds++
		en := s.newRound(r, len(top), bound)
		for {
			// Cancellation between verification work items (batches).
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			cands = cands[:0]
			for len(cands) < cpBatchSize {
				cand, ok := en.Next()
				if !ok {
					break
				}
				st.Enumerated++
				key := [2]int32{cand.ID1, cand.ID2}
				if seen[key] {
					continue
				}
				seen[key] = true
				if filter != nil && !(filter(cand.ID1) && filter(cand.ID2)) {
					continue
				}
				cands = append(cands, cand)
			}
			if len(cands) == 0 {
				break
			}
			// Verify the batch in parallel. The bound snapshot only
			// governs early abandonment: a stale (larger) bound merely
			// abandons later, and an abandoned partial sum still exceeds
			// every bound the merge below could compare it against.
			snap := bound
			// Screening inside the workers compares against the snapshot;
			// the merge bound only shrinks from there, so a screened
			// pair's lower bound exceeds whatever bound the merge holds —
			// it could never have been inserted, same as serial. Screening
			// is armed only when the top-k was already full at snapshot
			// time (it can only gain entries during the merge).
			full := len(top) == s.k
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(cands) {
							return
						}
						r1 := int(ix.rowOf[cands[i].ID1])
						r2 := int(ix.rowOf[cands[i].ID2])
						if codec != nil && full &&
							codec.PairLowerBound(r1, r2, snap) > snap {
							scr[i] = true
							continue
						}
						scr[i] = false
						d2s[i] = vec.SquaredL2Bounded(
							ix.data.Row(r1), ix.data.Row(r2), snap)
					}
				}()
			}
			wg.Wait()
			for i := range cands {
				if scr[i] {
					st.Screened++
					continue
				}
				if d2 := d2s[i]; len(top) < s.k || d2 < bound {
					top = insertPair(top, Pair{I: cands[i].ID1, J: cands[i].ID2, Dist: d2}, s.k)
					if len(top) == s.k {
						bound = top[s.k-1].Dist
					}
				}
			}
			st.Verified += len(cands)
			if len(top) == s.k {
				en.SetCutoff(s.projCutoff(bound))
				if st.Verified >= s.budget {
					pdc += en.DistComps()
					break rounds
				}
			}
			// Every admitted pair verified: nothing left to find.
			if st.Verified >= s.maxVerified {
				break
			}
		}
		pdc += en.DistComps()
		if s.settled(top, bound, r, len(seen), st.Verified) {
			break
		}
		r *= s.c
	}
	st.ProjectedDistComps = pdc
	finishPairs(top, ix.metric)
	return top, nil
}

// cpParams bundles one closest-pair query's derived constants.
type cpParams struct {
	ix          *Index
	k           int
	c           float64
	t           float64 // projected-radius multiplier from DeriveParams
	budget      int     // βn + k unique-verification cap
	maxPairs    int     // distinct pairs in the collection
	maxVerified int     // distinct admitted pairs (== maxPairs without a filter)
	r0          float64 // initial original-space radius
}

// projCutoff maps the k-th best squared original distance to the
// projected cutoff of the confidence-interval condition: pairs at
// original distance <= r_k/c project within t·r_k/c w.h.p., so nothing
// beyond that cutoff can break the (c,k) guarantee.
func (s *cpParams) projCutoff(bound float64) float64 {
	return s.t * math.Sqrt(bound) / s.c
}

// newRound starts one capped self-join at original-space radius r.
func (s *cpParams) newRound(r float64, have int, bound float64) *pmtree.PairEnumerator {
	en := s.ix.tree.NewPairEnumerator()
	en.SetCutoff(s.t * r)
	if have == s.k {
		en.SetCutoff(s.projCutoff(bound))
	}
	return en
}

// settled reports whether the query can stop after a round at radius r:
// the k-th best distance lies within c·r (the CI condition — a closer
// unseen pair would have been enumerated w.h.p.), every distinct pair
// has been enumerated (scanned counts distinct pairs consumed from the
// self-join, admitted or not), or every admitted pair has been
// verified (maxVerified — with a filter, the admitted population is
// counted up front, so a restrictive filter ends the query as soon as
// its last admitted pair is verified instead of grinding through the
// whole O(n²) self-join).
func (s *cpParams) settled(top []Pair, bound, r float64, scanned, verified int) bool {
	if len(top) == s.k && math.Sqrt(bound) <= s.c*r {
		return true
	}
	return scanned >= s.maxPairs || verified >= s.maxVerified
}

// cpSetup validates a closest-pair request and derives its constants. A
// nil setup with nil error means the query trivially returns no pairs
// (fewer than two indexed points).
func (ix *Index) cpSetup(k int, o SearchOptions) (*cpParams, error) {
	if ix.metric == metric.InnerProduct {
		return nil, fmt.Errorf("core: closest-pair queries are not defined for the inner-product metric (pair \"distance\" would mix both norms)")
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, err
	}
	n := ix.data.Live()
	if n < 2 {
		return nil, nil
	}
	maxPairs := n * (n - 1) / 2
	// With a filter, count the admitted live population up front (one
	// predicate call per live id — negligible next to a self-join). The
	// admitted pair count clamps k, bounds the verification the query
	// can ever do, and lets the engines stop the moment the last
	// admitted pair has been verified. Note the worst case stays
	// quadratic in enumeration when the admitted pairs are the farthest
	// in the collection — the distance-ordered self-join must pass every
	// closer pair first; WithBudget or a context deadline bounds that.
	maxVerified := maxPairs
	if o.Filter != nil {
		admitted := 0
		for id, row := range ix.rowOf {
			if row >= 0 && o.Filter(int32(id)) {
				admitted++
			}
		}
		if admitted < 2 {
			return nil, nil
		}
		maxVerified = admitted * (admitted - 1) / 2
	}
	if k > maxVerified {
		k = maxVerified
	}
	budget := int(math.Ceil(params.Beta*float64(n))) + k
	if o.Budget > 0 {
		budget = o.Budget
	}

	// r0: the radius at which the empirical pair-distance distribution F
	// predicts about budget pairs among the n(n-1)/2 total, then one
	// c-step up. distCDF is a uniform sample of pair distances, so its
	// quantiles estimate F⁻¹ directly — but budget/maxPairs is an
	// extreme quantile (~10⁻⁵), where the estimate is a low-rank order
	// statistic with noise on the order of the value itself. Unlike the
	// KNN engine, whose rounds are cheap, a failed round here re-runs
	// the whole self-join, so the first radius errs one enlargement
	// step high rather than shrinking (the approximation analysis holds
	// for any radius sequence; a wider first round only admits more
	// candidates).
	r0 := ix.distQuantile(float64(budget)/float64(maxPairs)) * c
	if r0 <= 0 {
		r0 = ix.smallestPositiveDistance()
	}
	return &cpParams{
		ix:          ix,
		k:           k,
		c:           c,
		t:           params.T,
		budget:      budget,
		maxPairs:    maxPairs,
		maxVerified: maxVerified,
		r0:          r0,
	}, nil
}

// insertPair keeps cand sorted ascending by distance and capped at k
// entries (equal distances keep first-inserted order).
func insertPair(cand []Pair, p Pair, k int) []Pair {
	return vec.InsertBounded(cand, p, k, func(p Pair) float64 { return p.Dist })
}

// finishPairs converts the deferred internal squared distances to the
// native metric (see finishDist; pairs have no query, so the
// InnerProduct case — rejected upstream — never reaches here).
func finishPairs(pairs []Pair, m metric.Kind) {
	for i := range pairs {
		if m == metric.Cosine {
			pairs[i].Dist = pairs[i].Dist / 2
		} else {
			pairs[i].Dist = math.Sqrt(pairs[i].Dist)
		}
	}
}
