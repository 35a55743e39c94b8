package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/pmtree"
	"repro/internal/vec"
)

// The closest-pair driver, for any shard count N ≥ 1. All shards share
// one projection seed, hence one projected space, so their PM-trees are
// one forest, and the pair stream is one self-join over it
// (pmtree.NewPairEnumerator): candidate pairs of the union in
// nondecreasing projected distance, a pair of shard p's id i named by
// the global id i·N + p. At N = 1 the forest is the one tree and a
// global id is the index's own id. On top sits the one radius-capped
// verify loop (run): seen-set dedup, the βn+k budget over the union's
// n, the confidence-interval termination.
//
// There is no parallel verification: on the reference dedup workload a
// query verifies 60 pairs (CPStats{Rounds:1 Enumerated:60 Verified:60
// ProjectedDistComps:32395}) — about 0.2% of its 12 ms — and the worker
// pool that fanned them out (removed in PR 19) measured no different
// from this loop.

// SearchPairs answers one (c,k)-closest-pair request (see
// Index.SearchPairs) over one view of every shard: the forest join over
// vector shards, the band join over set shards.
func (e *Engine) SearchPairs(ctx context.Context, k int, o SearchOptions) ([]Pair, error) {
	if e.Metric() == metric.Jaccard {
		parts := make([]*minhash.Index, len(e.shards))
		for s, sh := range e.shards {
			parts[s] = sh.(*setShard).Index
		}
		return searchPairsJaccard(ctx, parts, k, o)
	}
	parts := make([]*Index, len(e.shards))
	for s, sh := range e.shards {
		parts[s] = sh.(*Index)
	}
	return searchPairs(ctx, parts, k, o)
}

// searchPairs runs one closest-pair request over parts — the
// partitions of one collection, global id = local·N + partition. Each
// partition's view is loaded once, here, and the whole query reads
// those. The join runs on the caller's goroutine and counts itself in
// searching.
func searchPairs(ctx context.Context, parts []*Index, k int, o SearchOptions) ([]Pair, error) {
	searching.Add(1)
	defer searching.Add(-1)
	views := make([]*view, len(parts))
	for i, ix := range parts {
		views[i] = ix.view.Load()
	}
	s, ok, err := cpSetupSharded(parts[0], views, k, o)
	if err != nil {
		return nil, err
	}
	var st CPStats
	var res []Pair
	if ok { // otherwise trivially empty: fewer than two admitted points
		if res, err = s.run(ctx, o.Filter, &st); err != nil {
			return nil, err
		}
	}
	if o.PairStats != nil {
		*o.PairStats = st
	}
	return res, nil
}

// cpSharded bundles one closest-pair query's derived constants and the
// partitions' views it runs over.
type cpSharded struct {
	parts       []*view
	trees       []*pmtree.Tree // the parts' trees: the forest a round joins
	dim         int            // of the internal space the parts' rows live in
	metric      metric.Kind
	nsh         int32
	k           int
	c           float64
	t           float64 // projected-radius multiplier from DeriveParams
	budget      int     // βn + k unique-verification cap
	maxPairs    int     // distinct pairs in the collection
	maxVerified int     // distinct admitted pairs (== maxPairs without a filter)
	r0          float64 // initial original-space radius
}

// cpSetupSharded validates a closest-pair request and derives its
// constants over the union of the partitions (ix is any one of them:
// metric, dimensions and the χ² constants are build-time state they
// share). ok == false with a nil error means the query trivially
// returns no pairs.
func cpSetupSharded(ix *Index, parts []*view, k int, o SearchOptions) (s cpSharded, ok bool, err error) {
	if ix.metric == metric.InnerProduct {
		return s, false, fmt.Errorf("core: closest-pair queries are not defined for the inner-product metric (pair \"distance\" would mix both norms)")
	}
	if k <= 0 {
		return s, false, fmt.Errorf("core: k must be positive, got %d", k)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	// The derived constants depend only on build-time configuration,
	// which every shard shares.
	params, err := ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return s, false, err
	}
	n := 0
	for _, v := range parts {
		n += v.live()
	}
	if n < 2 {
		return s, false, nil
	}
	nsh := int32(len(parts))
	maxPairs := n * (n - 1) / 2
	// With a filter, count the admitted live population up front (one
	// predicate call per live id — negligible next to a self-join). The
	// admitted pair count clamps k, bounds the verification the query
	// can ever do, and lets the driver stop the moment the last
	// admitted pair has been verified. Note the worst case stays
	// quadratic in enumeration when the admitted pairs are the farthest
	// in the collection — the distance-ordered self-join must pass every
	// closer pair first; WithBudget or a context deadline bounds that.
	maxVerified := maxPairs
	if o.Filter != nil {
		admitted := 0
		for p, v := range parts {
			for local := range v.rowOf {
				if v.tree.IsLive(int32(local)) && o.Filter(int32(local)*nsh+int32(p)) {
					admitted++
				}
			}
		}
		if admitted < 2 {
			return s, false, nil
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
	//
	// One partition's sorted sample is read in place. Several are
	// concatenated: each describes its own partition, and pair distances
	// within and across partitions are drawn from the same global F, so
	// the merged sample estimates it over the union.
	cdf := parts[0].distCDF
	if len(parts) > 1 {
		cdf = make([]float64, 0, len(parts)*len(cdf))
		for _, v := range parts {
			cdf = append(cdf, v.distCDF...)
		}
		sort.Float64s(cdf)
	}
	r0 := distQuantile(cdf, float64(budget)/float64(maxPairs)) * c
	if r0 <= 0 {
		r0 = smallestPositiveDistance(cdf)
	}
	trees := make([]*pmtree.Tree, len(parts))
	for i, v := range parts {
		trees[i] = v.tree
	}
	return cpSharded{
		parts:       parts,
		trees:       trees,
		dim:         ix.dim,
		metric:      ix.metric,
		nsh:         nsh,
		k:           k,
		c:           c,
		t:           params.T,
		budget:      budget,
		maxPairs:    maxPairs,
		maxVerified: maxVerified,
		r0:          r0,
	}, true, nil
}

// row returns the stored row of partition p's live id.
func (s cpSharded) row(p int, id int32) []float64 {
	v := s.parts[p]
	r := int(v.rowOf[id])
	return v.flat[r*s.dim : (r+1)*s.dim]
}

// projCutoff maps the k-th best squared original distance to the
// projected cutoff of the confidence-interval condition: pairs at
// original distance <= r_k/c project within t·r_k/c w.h.p., so nothing
// beyond that cutoff can break the (c,k) guarantee.
func (s cpSharded) projCutoff(bound float64) float64 {
	return s.t * math.Sqrt(bound) / s.c
}

// settled reports whether the query can stop after a round at radius r:
// the k-th best distance lies within c·r (the CI condition — a closer
// unseen pair would have been enumerated w.h.p.), every distinct pair
// has been enumerated (scanned counts distinct pairs consumed from the
// join, admitted or not), or every admitted pair has been verified
// (maxVerified — with a filter, the admitted population is counted up
// front, so a restrictive filter ends the query as soon as its last
// admitted pair is verified instead of grinding through the whole
// O(n²) join).
func (s cpSharded) settled(top []Pair, bound, r float64, scanned, verified int) bool {
	if len(top) == s.k && math.Sqrt(bound) <= s.c*r {
		return true
	}
	return scanned >= s.maxPairs || verified >= s.maxVerified
}

// newRound starts one capped self-join of the forest at original-space
// radius r.
func (s cpSharded) newRound(r float64, have int, bound float64) *pmtree.PairEnumerator {
	en := pmtree.NewPairEnumerator(s.trees...)
	en.SetCutoff(s.t * r)
	if have == s.k {
		en.SetCutoff(s.projCutoff(bound))
	}
	return en
}

// cpCheckEvery is how many candidates the pair loops consume between
// cancellation checks.
const cpCheckEvery = 256

// run is the one closest-pair round loop: rounds of capped joins at
// projected radius t·r, r ← c·r, each candidate verified with its
// exact distance as it streams off the join.
func (s cpSharded) run(ctx context.Context, filter func(int32) bool, st *CPStats) ([]Pair, error) {
	// top's Dist holds squared distances until return; bound is the
	// current k-th best of them.
	top := make([]Pair, 0, vec.PreallocCap(s.k, s.maxVerified))
	bound := math.Inf(1)
	seen := make(map[[2]int32]bool, vec.PreallocCap(s.budget, s.maxPairs))
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
			if st.Enumerated%cpCheckEvery == 0 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			cand, ok := en.Next()
			if !ok {
				break
			}
			st.Enumerated++
			g1, g2 := cand.ID1*s.nsh+int32(cand.Tree1), cand.ID2*s.nsh+int32(cand.Tree2)
			if g2 < g1 {
				g1, g2 = g2, g1
			}
			key := [2]int32{g1, g2}
			if seen[key] {
				continue
			}
			seen[key] = true
			if filter != nil && !(filter(g1) && filter(g2)) {
				continue
			}
			st.Verified++
			d2 := vec.SquaredL2Bounded(s.row(cand.Tree1, cand.ID1), s.row(cand.Tree2, cand.ID2), bound)
			if len(top) < s.k || d2 < bound {
				top = insertPair(top, Pair{I: g1, J: g2, Dist: d2}, s.k)
				if len(top) == s.k {
					bound = top[s.k-1].Dist
					en.SetCutoff(s.projCutoff(bound))
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
	finishPairs(top, s.metric)
	return top, nil
}

// searchPairsJaccard answers a closest-pair request over N ≥ 1
// MinHash partitions, on the caller's goroutine, counting itself in
// searching. Every shard shares one minhash seed
// (BuildSetsEngine guarantees it), so all shards' band b buckets live
// in one hash space: two sets — same shard or not — land in the same
// merged bucket exactly when their band-b signatures agree. The join
// therefore gathers each band's buckets across shards, generates each
// unordered candidate pair once, rescores it with the exact Jaccard
// of the stored token sets, drops pairs below the similarity
// threshold, and keeps the top k by (distance, I, J) — the same
// candidate population a single index over the union would surface.
//
// Each shard's band table is copied out under that shard's lock alone
// (minhash.Index.Buckets) and joined under none: a query that held one
// shard's lock while taking another's could wait forever on a second
// query doing the reverse once a writer queues on each shard.
func searchPairsJaccard(ctx context.Context, parts []*minhash.Index, k int, o SearchOptions) ([]Pair, error) {
	searching.Add(1)
	defer searching.Add(-1)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	nsh := int32(len(parts))
	bands := parts[0].Bands()
	threshold := parts[0].Threshold()
	st := CPStats{Rounds: 1}
	seen := make(map[[2]int32]struct{})
	cands := make([][2]int32, 0, 256)
	var group []int32 // one merged bucket's global ids, reused
	tables := make([]map[uint64][]int32, len(parts))
	for b := 0; b < bands; b++ {
		for s, mh := range parts {
			tables[s] = mh.Buckets(b)
		}
		for s, table := range tables {
		keys:
			for key := range table {
				// A key's merged bucket is built once, by the lowest
				// shard that holds the key.
				for _, lower := range tables[:s] {
					if len(lower[key]) > 0 {
						continue keys
					}
				}
				group = group[:0]
				for o := s; o < len(tables); o++ {
					for _, local := range tables[o][key] {
						group = append(group, local*nsh+int32(o))
					}
				}
				for i := 0; i < len(group); i++ {
					for j := i + 1; j < len(group); j++ {
						a, c := group[i], group[j]
						if c < a {
							a, c = c, a
						}
						pr := [2]int32{a, c}
						if _, ok := seen[pr]; ok {
							continue
						}
						seen[pr] = struct{}{}
						cands = append(cands, pr)
					}
				}
			}
		}
	}
	st.Enumerated = len(cands)
	// Deterministic rescore order (map iteration above is not).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i][0] != cands[j][0] {
			return cands[i][0] < cands[j][0]
		}
		return cands[i][1] < cands[j][1]
	})
	set := func(gid int32) []uint64 {
		return parts[gid%nsh].Set(gid / nsh)
	}
	top := make([]Pair, 0, vec.PreallocCap(k, len(cands)))
	for n, cand := range cands {
		if n%cpCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		if o.Filter != nil && !(o.Filter(cand[0]) && o.Filter(cand[1])) {
			continue
		}
		if o.Budget > 0 && st.Verified >= o.Budget {
			break
		}
		a, b := set(cand[0]), set(cand[1])
		if a == nil || b == nil {
			// Deleted since its bucket was read: the MinHash backend has no
			// view, each call sees the sets as they then are.
			continue
		}
		st.Verified++
		sim := minhash.Jaccard(a, b)
		if sim < threshold {
			continue
		}
		top = insertPair(top, Pair{I: cand[0], J: cand[1], Dist: 1 - sim}, k)
	}
	if o.PairStats != nil {
		*o.PairStats = st
	}
	return top, nil
}
