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

// Sharded closest-pair search. Every pair of live points either lives
// inside one shard or straddles two, so the N-shard pair stream is the
// merge of N self-joins (one per shard's PM-tree) and N(N-1)/2
// bipartite joins (one per shard pair — all shards share one
// projection seed, hence one projected space, which is what makes the
// cross-tree distances meaningful). The merged enumerator yields
// global-id candidates in nondecreasing projected distance, and the
// driver on top is the same radius-capped verify loop as the 1-shard
// engine: same seen-set dedup, same βn+k budget over the union's n,
// same confidence-interval termination. Quantized screening is
// skipped at N > 1 (it is reject-only, so answers are unchanged;
// CPStats.Screened stays 0), and o.Parallel falls back to the serial
// verifier — the per-shard enumerators already spread the tree work.

// SearchPairs answers one (c,k)-closest-pair request (see
// Index.SearchPairs). With one shard it is the bare Index query; with
// N > 1 pairs within and across shards are enumerated by the merged
// traversal above.
func (e *Engine) SearchPairs(ctx context.Context, k int, o SearchOptions) ([]Pair, error) {
	if len(e.shards) == 1 {
		h := e.shards[0].pin()
		defer h.unpin()
		return h.ix.SearchPairs(ctx, k, o)
	}
	if e.metric == metric.Jaccard {
		pins := e.pinAll()
		defer unpinAll(pins)
		return searchPairsJaccardSharded(ctx, pins, k, o)
	}
	pins := e.pinAll()
	defer unpinAll(pins)
	s, err := e.cpSetupSharded(k, o, pins)
	if err != nil {
		return nil, err
	}
	var st CPStats
	if s == nil { // trivially empty: fewer than two live points
		if o.PairStats != nil {
			*o.PairStats = st
		}
		return nil, nil
	}
	res, err := s.run(ctx, o.Filter, &st)
	if err != nil {
		return nil, err
	}
	if o.PairStats != nil {
		*o.PairStats = st
	}
	return res, nil
}

// cpSharded bundles one sharded closest-pair query's derived
// constants and pinned snapshots (the direct-field reads below are
// safe: a pinned half is never mutated, and the pin's atomic load
// orders them after the half's last publication).
type cpSharded struct {
	pins        []*half
	nsh         int32
	k           int
	c           float64
	t           float64
	budget      int
	maxPairs    int
	maxVerified int
	r0          float64
}

// cpSetupSharded mirrors cpSetup over the union of the pinned shards.
// A nil setup with nil error means the query trivially returns no
// pairs.
func (e *Engine) cpSetupSharded(k int, o SearchOptions, pins []*half) (*cpSharded, error) {
	if e.metric == metric.InnerProduct {
		return nil, fmt.Errorf("core: closest-pair queries are not defined for the inner-product metric (pair \"distance\" would mix both norms)")
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	// The derived constants depend only on build-time configuration,
	// which every shard shares.
	params, err := pins[0].ix.deriveParamsOpt(c, o.Alpha1)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, h := range pins {
		n += h.ix.data.Live()
	}
	if n < 2 {
		return nil, nil
	}
	nsh := int32(len(pins))
	maxPairs := n * (n - 1) / 2
	maxVerified := maxPairs
	if o.Filter != nil {
		admitted := 0
		for s, h := range pins {
			for local, row := range h.ix.rowOf {
				if row >= 0 && o.Filter(int32(local)*nsh+int32(s)) {
					admitted++
				}
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
	// r0 from the merged empirical distance distribution: each shard's
	// sample describes its own partition, and pair distances within and
	// across partitions are drawn from the same global F, so the
	// concatenated sample estimates it over the union (see cpSetup for
	// why the first radius errs one c-step high).
	cdf := make([]float64, 0, len(pins)*len(pins[0].ix.distCDF))
	for _, h := range pins {
		cdf = append(cdf, h.ix.distCDF...)
	}
	sort.Float64s(cdf)
	p := float64(budget) / float64(maxPairs)
	if p > 1 {
		p = 1
	}
	r0 := cdf[int(p*float64(len(cdf)-1))] * c
	if r0 <= 0 {
		r0 = 1e-9
		for _, d := range cdf {
			if d > 0 {
				r0 = d
				break
			}
		}
	}
	return &cpSharded{
		pins:        pins,
		nsh:         nsh,
		k:           k,
		c:           c,
		t:           params.T,
		budget:      budget,
		maxPairs:    maxPairs,
		maxVerified: maxVerified,
		r0:          r0,
	}, nil
}

// point resolves a live global id to its vector.
func (s *cpSharded) point(gid int32) []float64 {
	ix := s.pins[gid%s.nsh].ix
	return ix.data.Row(int(ix.rowOf[gid/s.nsh]))
}

func (s *cpSharded) projCutoff(bound float64) float64 {
	return s.t * math.Sqrt(bound) / s.c
}

func (s *cpSharded) settled(top []Pair, bound, r float64, scanned, verified int) bool {
	if len(top) == s.k && math.Sqrt(bound) <= s.c*r {
		return true
	}
	return scanned >= s.maxPairs || verified >= s.maxVerified
}

// pairSource is one sub-enumerator of the merge: a self-join (sa ==
// sb) or bipartite join (sa < sb) with its current head candidate
// translated to normalized global ids.
type pairSource struct {
	en     *pmtree.PairEnumerator
	sa, sb int32
	nsh    int32
	head   Pair // head.Dist is the projected distance
	ok     bool
}

func (p *pairSource) advance() {
	c, ok := p.en.Next()
	p.ok = ok
	if !ok {
		return
	}
	g1 := c.ID1*p.nsh + p.sa
	g2 := c.ID2*p.nsh + p.sb
	if g2 < g1 {
		g1, g2 = g2, g1
	}
	p.head = Pair{I: g1, J: g2, Dist: c.Dist}
}

// shardedPairEnum k-way-merges the sub-enumerators by (projected
// distance, global id pair) — a deterministic total order, so the
// candidate stream does not depend on goroutine scheduling or map
// iteration anywhere upstream.
type shardedPairEnum struct {
	srcs []pairSource
}

func (m *shardedPairEnum) Next() (Pair, bool) {
	best := -1
	for i := range m.srcs {
		s := &m.srcs[i]
		if !s.ok {
			continue
		}
		if best < 0 || pairLess(s.head, m.srcs[best].head) {
			best = i
		}
	}
	if best < 0 {
		return Pair{}, false
	}
	out := m.srcs[best].head
	m.srcs[best].advance()
	return out, true
}

func pairLess(a, b Pair) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// SetCutoff forwards to every sub-enumerator (heads already pulled may
// exceed the new cutoff; the driver's bound check disposes of them,
// exactly as it does for the candidate a 1-shard enumerator has
// already returned when its cutoff shrinks).
func (m *shardedPairEnum) SetCutoff(c float64) {
	for i := range m.srcs {
		m.srcs[i].en.SetCutoff(c)
	}
}

// DistComps sums the sub-enumerators' projected-space metric
// evaluations (each counts its own, so the total is exact per query).
func (m *shardedPairEnum) DistComps() int64 {
	var total int64
	for i := range m.srcs {
		total += m.srcs[i].en.DistComps()
	}
	return total
}

// newRound starts one capped merged enumeration at original-space
// radius r.
func (s *cpSharded) newRound(r float64, have int, bound float64) *shardedPairEnum {
	m := &shardedPairEnum{}
	for a := range s.pins {
		ta := s.pins[a].ix.tree
		if s.pins[a].ix.data.Live() >= 2 {
			m.srcs = append(m.srcs, pairSource{en: ta.NewPairEnumerator(), sa: int32(a), sb: int32(a), nsh: s.nsh})
		}
		for b := a + 1; b < len(s.pins); b++ {
			if s.pins[a].ix.data.Live() >= 1 && s.pins[b].ix.data.Live() >= 1 {
				m.srcs = append(m.srcs, pairSource{en: ta.NewBipartitePairEnumerator(s.pins[b].ix.tree), sa: int32(a), sb: int32(b), nsh: s.nsh})
			}
		}
	}
	m.SetCutoff(s.t * r)
	if have == s.k {
		m.SetCutoff(s.projCutoff(bound))
	}
	for i := range m.srcs {
		m.srcs[i].advance()
	}
	return m
}

// run is searchPairsSerial over the merged enumerator: rounds of
// capped joins at projected radius t·r, r ← c·r, each candidate
// verified with its exact distance across the union of stores.
func (s *cpSharded) run(ctx context.Context, filter func(int32) bool, st *CPStats) ([]Pair, error) {
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
			key := [2]int32{cand.I, cand.J}
			if seen[key] {
				continue
			}
			seen[key] = true
			if filter != nil && !(filter(cand.I) && filter(cand.J)) {
				continue
			}
			st.Verified++
			d2 := vec.SquaredL2Bounded(s.point(cand.I), s.point(cand.J), bound)
			if len(top) < s.k || d2 < bound {
				top = insertPair(top, Pair{I: cand.I, J: cand.J, Dist: d2}, s.k)
				if len(top) == s.k {
					bound = top[s.k-1].Dist
					en.SetCutoff(s.projCutoff(bound))
				}
			}
			if st.Verified >= s.budget && len(top) == s.k {
				pdc += en.DistComps()
				break rounds
			}
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
	finishPairs(top, s.pins[0].ix.metric)
	return top, nil
}

// searchPairsJaccardSharded answers a closest-pair request over N > 1
// MinHash shards. Every shard shares one minhash seed (BuildSetsEngine
// guarantees it), so all shards' band b buckets live in one hash
// space: two sets — same shard or not — land in the same merged
// bucket exactly when their band-b signatures agree. The join
// therefore merges each band's buckets across shards, generates each
// unordered candidate pair once, rescores it with the exact Jaccard
// of the stored token sets, and keeps the top k by (distance, I, J) —
// the same candidate population a single-shard index over the union
// would surface.
func searchPairsJaccardSharded(ctx context.Context, pins []*half, k int, o SearchOptions) ([]Pair, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	nsh := int32(len(pins))
	mh0 := pins[0].ix.mh
	bands := mh0.Bands()
	threshold := mh0.Threshold()
	st := CPStats{Rounds: 1}
	seen := make(map[[2]int32]struct{})
	cands := make([][2]int32, 0, 256)
	for b := 0; b < bands; b++ {
		// Merge band b's buckets across shards: key → global ids.
		merged := make(map[uint64][]int32)
		for s, h := range pins {
			h.ix.mh.ForEachBucket(b, func(key uint64, ids []int32) {
				for _, local := range ids {
					merged[key] = append(merged[key], local*nsh+int32(s))
				}
			})
		}
		for _, ids := range merged {
			if len(ids) < 2 {
				continue
			}
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					a, c := ids[i], ids[j]
					if c < a {
						a, c = c, a
					}
					key := [2]int32{a, c}
					if _, ok := seen[key]; ok {
						continue
					}
					seen[key] = struct{}{}
					cands = append(cands, key)
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
		return pins[gid%nsh].ix.mh.Set(gid / nsh)
	}
	top := make([]Pair, 0, vec.PreallocCap(k, len(cands)))
	for n, cand := range cands {
		if n%cpBatchSize == 0 {
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
		st.Verified++
		sim := minhash.Jaccard(set(cand[0]), set(cand[1]))
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
