package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/pmtree"
	"repro/internal/vec"
)

// replayer re-runs Algorithm 2 for one query from outside core, one
// public call per stage: Index.Project, the PM-tree's range enumerator
// at the radii the real query used, the ordering of each round's
// candidates, and the early-abandoning exact distances against a
// running top-k. It is a second implementation of the loop, so the sum
// of its stages is not the real query's time (trace.replay_ratio says
// how far off it is); what it delivers are the stages' shares and
// counts that must match the real query's exactly.
type replayer struct {
	ix     *core.Index
	points [][]float64 // row i is the point with id i (an unmutated build)
	opts   core.SearchOptions
	t      float64 // projected-radius multiplier
	needed int     // the βn+k budget

	en     pmtree.RangeEnumerator
	emit   []core.Result
	tmp    []core.Result
	top    []core.Result
	emitFn func(id int32, dist float64)

	tr         *tracer
	queries    int
	rounds     int
	verified   int
	emitted    int
	distComps  int64
	budgetStop int
	mismatches int
	failed     int
}

func newReplayer(ix *core.Index, points [][]float64, opts core.SearchOptions) (*replayer, error) {
	params, err := ix.DeriveParams(queryC)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		ix: ix, points: points, opts: opts, t: params.T,
		needed: int(math.Ceil(params.Beta*float64(len(points)))) + queryK,
		top:    make([]core.Result, 0, queryK),
	}
	if opts.Budget > 0 {
		rp.needed = opts.Budget
	}
	rp.emitFn = func(id int32, dist float64) {
		rp.emit = append(rp.emit, core.Result{ID: id, Dist: dist})
	}
	return rp, nil
}

// run replays every query. With record unset it only warms buffers.
func (rp *replayer) run(queries [][]float64, record bool) {
	start := time.Now()
	rp.tr = newTracer(func() int64 { return int64(time.Since(start)) }, 16*len(queries))
	rp.queries, rp.rounds, rp.verified, rp.emitted, rp.distComps = 0, 0, 0, 0, 0
	rp.budgetStop, rp.mismatches, rp.failed = 0, 0, 0
	for qi, q := range queries {
		rp.one(qi, q)
	}
	if !record {
		rp.tr = nil
	}
}

func (rp *replayer) one(qi int, q []float64) {
	tr := rp.tr
	root := tr.begin("query", -1, qi)
	var st core.QueryStats
	o := rp.opts
	o.Stats = &st
	s := tr.begin("core.search", root, qi)
	res, err := rp.ix.Search(context.Background(), q, queryK, o)
	tr.end(s)
	if err != nil || len(res) != queryK {
		rp.failed++
		tr.end(root)
		return
	}

	replay := tr.begin("replay", root, qi)
	s = tr.begin("lsh.project", replay, qi)
	qp := rp.ix.Project(q)
	tr.end(s)
	if err := rp.en.Reset(rp.ix.Tree(), qp); err != nil {
		rp.failed++
		tr.end(replay)
		tr.end(root)
		return
	}
	radius := firstRadius(st.FinalRadius, queryC, st.Rounds)
	verified, emitted := 0, 0
	top, bound := rp.top[:0], math.Inf(1)
	for round := 0; round < st.Rounds; round++ {
		s = tr.begin("pmtree.enumerate", replay, qi)
		rp.emit = rp.emit[:0]
		rp.en.Expand(rp.t*radius, rp.emitFn)
		tr.end(s)

		s = tr.begin("core.order", replay, qi)
		rp.tmp = sortByDistID(rp.emit, rp.tmp)
		tr.end(s)

		s = tr.begin("vec.verify", replay, qi)
		for _, cand := range rp.emit {
			if verified == st.Verified {
				break
			}
			verified++
			d2 := vec.SquaredL2Bounded(q, rp.points[cand.ID], bound)
			if len(top) < queryK || d2 < bound {
				top = vec.InsertBounded(top, core.Result{ID: cand.ID, Dist: d2}, queryK,
					func(r core.Result) float64 { return r.Dist })
				if len(top) == queryK {
					bound = top[queryK-1].Dist
				}
			}
		}
		tr.end(s)
		emitted += len(rp.emit)
		radius *= queryC
	}
	tr.end(replay)
	tr.end(root)
	comps := rp.en.DistComps()
	rp.en.Release()

	// The replay stands for the real query only if it did the same work
	// and found the same k-th neighbour.
	if comps != st.ProjectedDistComps || verified != st.Verified ||
		len(top) != queryK || math.Sqrt(top[queryK-1].Dist) != res[queryK-1].Dist {
		rp.mismatches++
	}
	rp.queries++
	rp.rounds += st.Rounds
	rp.verified += verified
	rp.emitted += emitted
	rp.distComps += comps
	if st.Verified >= rp.needed {
		rp.budgetStop++
	}
}

// report turns the recorded spans and counts into the per-layer
// metrics of the query path.
func (rp *replayer) report(r *report, n, d int) {
	nq := float64(rp.queries)
	total := totals(rp.tr.spans)
	perQueryUS := func(name string) float64 { return float64(total[name]) / 1000 / nq }
	r.set("lsh.project_us", perQueryUS("lsh.project"), rp.queries)
	r.set("pmtree.enumerate_us", perQueryUS("pmtree.enumerate"), rp.queries)
	r.set("core.order_us", perQueryUS("core.order"), rp.queries)
	r.set("vec.verify_us", perQueryUS("vec.verify"), rp.queries)
	r.set("core.search_us", perQueryUS("core.search"), rp.queries)
	r.set("pmtree.dist_comps", float64(rp.distComps)/nq, rp.queries)
	r.set("pmtree.emitted", float64(rp.emitted)/nq, rp.queries)
	r.set("pmtree.prune_ratio", 1-float64(rp.distComps)/nq/float64(n), rp.queries)
	r.set("pmtree.emit_use_ratio", float64(rp.verified)/float64(rp.emitted), rp.queries)
	r.set("core.rounds", float64(rp.rounds)/nq, rp.queries)
	r.set("core.verified", float64(rp.verified)/nq, rp.queries)
	r.set("core.budget_stop_ratio", float64(rp.budgetStop)/nq, rp.queries)
	r.set("vec.verify_ns_per_cand", float64(total["vec.verify"])/float64(rp.verified), rp.verified)
	r.set("vec.verify_bytes", float64(rp.verified)/nq*float64(d)*8, 0) // computed: rows touched × row size
	stages := total["lsh.project"] + total["pmtree.enumerate"] + total["core.order"] + total["vec.verify"]
	r.set("trace.replay_ratio", float64(stages)/float64(total["core.search"]), rp.queries)
	r.set("trace.count_mismatches", float64(rp.mismatches), rp.queries)
	if rp.mismatches > 0 {
		r.gate("%d of %d replayed queries did not match the real query's counts or k-th distance", rp.mismatches, rp.queries)
	}
	stageShares(r, total)
	// What the measurement itself costs: the replay's loop around its
	// stages, and the tracer around the real query and the replay.
	self := map[string]int64{}
	for i, st := range selfTimes(rp.tr.spans) {
		self[rp.tr.spans[i].Name] += st
	}
	r.note("self time per query: replay loop %.2f us, tracer %.2f us",
		float64(self["replay"])/1000/nq, float64(self["query"])/1000/nq)
}

// stageShares prints where a query's time goes, as shares of the
// replayed stages' sum.
func stageShares(r *report, total map[string]int64) {
	names := []string{"lsh.project", "pmtree.enumerate", "core.order", "vec.verify"}
	var sum int64
	for _, name := range names {
		sum += total[name]
	}
	line := "stage shares of a replayed query:"
	for _, name := range names {
		line += fmt.Sprintf(" %s %.1f%%", name, 100*float64(total[name])/float64(sum))
	}
	r.note("%s", line)
}

// firstRadius recovers the first round's radius from the last one's:
// core multiplies r by c once per extra round, so dividing back is
// exact up to rounding, and the few neighbouring floats are tried
// until multiplying forward reproduces the final radius bit for bit.
func firstRadius(final, c float64, rounds int) float64 {
	forward := func(r float64) float64 {
		for i := 1; i < rounds; i++ {
			r *= c
		}
		return r
	}
	r0 := final
	for i := 1; i < rounds; i++ {
		r0 /= c
	}
	lo, hi := r0, r0
	for i := 0; i < 8; i++ {
		if forward(lo) == final {
			return lo
		}
		if forward(hi) == final {
			return hi
		}
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
	}
	return r0
}

// sortByDistID orders one round's candidates by (projected distance,
// id), the order core verifies them in, and with core's method: an LSD
// radix sort on the distance's IEEE-754 bits (order-preserving for the
// non-negative distances the tree emits) that skips bytes every key
// shares, then an id sort inside runs of equal distance. It returns
// the double buffer for reuse.
func sortByDistID(rs, tmp []core.Result) []core.Result {
	if len(rs) < 64 {
		slices.SortFunc(rs, compareDistID)
		return tmp
	}
	if cap(tmp) < len(rs) {
		tmp = make([]core.Result, len(rs))
	}
	src, dst := rs, tmp[:len(rs)]
	var count [8][256]int32
	for i := range src {
		bits := math.Float64bits(src[i].Dist)
		for b := 0; b < 8; b++ {
			count[b][byte(bits>>(8*b))]++
		}
	}
	for b := 0; b < 8; b++ {
		shift := 8 * b
		if count[b][byte(math.Float64bits(src[0].Dist)>>shift)] == int32(len(src)) {
			continue // every key has this byte
		}
		var pos [256]int32
		var sum int32
		for v, n := range count[b] {
			pos[v] = sum
			sum += n
		}
		for i := range src {
			v := byte(math.Float64bits(src[i].Dist) >> shift)
			dst[pos[v]] = src[i]
			pos[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
	for i := 0; i < len(rs); {
		j := i + 1
		for j < len(rs) && rs[j].Dist == rs[i].Dist {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(rs[i:j], compareDistID)
		}
		i = j
	}
	return tmp
}

func compareDistID(a, b core.Result) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	}
	return int(a.ID) - int(b.ID)
}
