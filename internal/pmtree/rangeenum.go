package pmtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// This file implements range enumeration, the query behind Algorithm
// 2's radius-enlarging loop: range(q, r) at r, c·r, c²·r, … over one
// tree and one query point, every round handing on only the points no
// earlier round has.
//
// "Within r" is defined on the batched kernel's squared distance: a live
// row is within r exactly when sqrt(d²) <= r for the d² that
// vec.SquaredL2ToMany computes for it (decided without the root as
// d² <= squaredCeil(r)), and the distance reported for it is that
// sqrt(d²). A round at r after a round at prev emits the live rows in
// (prev, r], each once per enumeration.
//
// An enumeration resolves its rounds in one of two ways, chosen when it
// is reset.
//
//   - The flat pass (Reset): one kernel call per part of the rows — the
//     generation's, the tail — computes every row's d², and each round
//     walks the kept array. It reads no node, so it never bulk loads the
//     tree. Algorithm 2's first radius holds βn+k points, a quarter to a
//     third of the data; a ball that size meets nearly every leaf, and a
//     traversal would evaluate 94–101% of the points behind tests that
//     reject nothing — so every k-NN query is flat passes.
//   - The traversal (ResetTree): every round descends from the root
//     behind RangeSearch's pruning tests — hyper-rings, parent-distance
//     filter, ball test, in the float arithmetic of the recursive
//     reference the tests keep — and skips what lies within the previous
//     radius. An opened leaf is resolved as a batch (scanLeaf), its dead
//     entries skipped; the tail, which no node covers, is a flat pass
//     beside the descent. RangeSearch, the pair join's tail seeds and
//     SearchBall under Tree.ScanRadius, whose balls meet few leaves, run
//     on it.
//
// The traversal is an accelerator for the definition above, not a second
// definition. Its kernel is the flat pass's, so the distance it computes
// for a row is bit for bit the flat pass's; what it adds are filters
// that, by the triangle inequality, never reject a point within r (in
// floating point a filter bound within an ulp of a distance that equals
// r could; the flat pass has no such case and is the contract).
// TestScanMatchesTree tests the traversal against it, and
// TestLeafScanMatchesRecursiveReference the batched leaf scan against
// the entry-at-a-time reference, metric evaluations included.

// RangeEnumerator is a range enumeration over one tree (see the top of
// this file for what a round emits and how). The zero value is ready for
// Reset; all buffers (pivot distances, leaf bounds, row distances, the
// round's delta) are reused across Resets, so a pooled enumerator reaches
// a zero-allocation steady state.
//
// The tree must not be mutated AT ALL between Reset and the last
// Expand — not concurrently, and not between rounds either: a round
// emits (previous radius, r] of the rows and liveness it finds, so an
// Insert or a Delete inside a radius already passed would never reach
// the caller. A Snapshot is such a tree for as long as anyone holds it,
// which is what the index layer hands every query. Concurrent
// enumerations are fine. The query slice q is retained until the next
// Reset or Release.
type RangeEnumerator struct {
	t  *Tree
	l  *layout // the generation's rows as this enumeration reads them
	q  []float64
	qp []float64 // d(q, pivot_i); empty until the traversal's first use
	// The round in progress covers (prev, radius]; radius is all an
	// enumeration carries from one round to the next (−∞ before the first).
	prev, radius float64
	lb, d2       []float64 // scanLeaf's per-leaf bounds and squared distances

	// The round's delta as collect leaves it for Nearest: the admitted
	// points that entered the radius, and the sizes of their buckets.
	// admit and emit are set for the duration of one collect.
	sel      []selEntry
	hist     [selBuckets + 1]int32
	admit    func(id int32) bool
	emit     func(id int32, dist float64)
	base     float64 // the bucket scale's origin: the previous radius, or 0
	scale    float64 // buckets per unit of distance
	inRadius int     // points that entered the radius, admitted or not

	// rowD2 keeps a flat pass's squared distances: every row's, the
	// generation's then the tail's — or, when treeOnly (ResetTree), the
	// tail's from tailFrom; empty until the first pass.
	rowD2    []float64
	hits     []int32 // takeWithin's rows in the round
	treeOnly bool
	// tailFrom is the first row of the tail the enumeration covers. The
	// pair enumerator raises it after ResetTree to leave tail rows out.
	tailFrom int

	// qdist counts this enumeration's metric evaluations since the last
	// Reset: pivot, routing-object and leaf-point distances and every
	// tail row on a traversal, every row (dead ones included) on a flat
	// pass. Owned by one query, it stays exact when queries overlap.
	qdist int64
}

// Reset rebinds the enumerator to a tree and query point for flat
// passes, restarting the enumeration at radius −∞ with all buffers
// reused.
func (e *RangeEnumerator) Reset(t *Tree, q []float64) error { return e.reset(t, q, false) }

// ResetTree is Reset for an enumeration that traverses the tree in every
// round, bulk loading it first if nothing has.
func (e *RangeEnumerator) ResetTree(t *Tree, q []float64) error { return e.reset(t, q, true) }

func (e *RangeEnumerator) reset(t *Tree, q []float64, treeOnly bool) error {
	if len(q) != t.dim {
		return fmt.Errorf("pmtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	e.t, e.q, e.treeOnly = t, q, treeOnly
	if e.l = t.gen.cur.Load(); treeOnly {
		e.l = t.built()
	}
	e.radius = math.Inf(-1)
	e.qdist = 0
	e.qp = e.qp[:0]
	e.rowD2 = e.rowD2[:0]
	e.tailFrom = t.frozen
	return nil
}

// Release drops the references the enumerator holds (tree, rows, query),
// so a pooled enumerator does not pin a tree that a Compact has since
// replaced. Buffer capacity is kept unless it has outgrown the tree
// being released (twice its rows, plus slack): a pool never frees, and
// the buffers reach the largest tree ever queried.
func (e *RangeEnumerator) Release() {
	if e.t != nil {
		bound := 2*e.t.Rows() + 1024
		if cap(e.rowD2) > bound || cap(e.hits) > bound {
			e.rowD2, e.hits = nil, nil
		}
		if cap(e.sel) > bound {
			e.sel = nil
		}
	}
	e.t, e.l = nil, nil
	e.q = nil
}

// Expand raises the enumeration radius to r and streams every indexed
// point within r that no earlier Expand or Nearest has taken — at most
// once per query across all calls — through emit as (id, exact
// distance). Radii are expected to be nondecreasing; a smaller r is a
// no-op (everything within it was already emitted). The callback must
// not call back into the enumerator. Emission order within one Expand is
// unspecified (and differs between the traversal and the flat pass).
func (e *RangeEnumerator) Expand(r float64, emit func(id int32, dist float64)) {
	e.collect(r, nil, emit)
}

// Nearest raises the enumeration radius to r like Expand and, of the
// points Expand(r) would emit, returns those admit accepts (nil admits
// all), cut to the limit that come first by (distance, id). They are
// appended to out[:0] as bare ids: buckets of ascending distance, in no
// particular order inside one. inRadius counts what Expand(r) would
// have emitted, admitted or not, and all of it is spent — a later call
// returns only what a larger radius adds. admit is called once per
// in-radius point and must not call back into the enumerator.
//
// Nothing is sorted but the bucket the cut falls in: a prefix sum over
// the bucket sizes finds it, the buckets before it are taken whole (a
// smaller bucket means a strictly smaller distance) and its own entries
// are ordered by (distance, id) to take exactly the remainder — the
// sorted delta's first limit entries, ties at the cut included.
func (e *RangeEnumerator) Nearest(r float64, limit int, admit func(id int32) bool, out []int32) (ids []int32, inRadius int) {
	e.collect(r, admit, nil)
	sel := e.sel
	take := max(0, min(limit, len(sel)))
	// Bucket sizes to offsets; cut is the bucket holding the first entry
	// left out and cutAt its offset (no bucket when everything is taken).
	cut, cutAt, next := int32(len(e.hist)), take, int32(0)
	for b := range e.hist {
		n := e.hist[b]
		if int(next) <= take && take < int(next+n) {
			cut, cutAt = int32(b), int(next)
		}
		e.hist[b] = next
		next += n
	}
	out = slices.Grow(out[:0], len(sel))[:len(sel)]
	w := 0
	for _, c := range sel {
		at := &e.hist[c.bucket]
		out[*at] = c.id
		*at++
		if c.bucket == cut {
			sel[w] = c
			w++
		}
	}
	if take > cutAt {
		slices.SortFunc(sel[:w], func(a, b selEntry) int {
			if c := cmp.Compare(a.dist, b.dist); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		for i, c := range sel[:take-cutAt] {
			out[cutAt+i] = c.id
		}
	}
	return out[:take], e.inRadius
}

// selBuckets is how many distance classes a round's delta is split
// into: a k-NN round admits a few thousand points, a handful per bucket
// to sort at the cut, and the counters stay inside the L1 cache.
const selBuckets = 1024

// selEntry is one point of the round's delta.
type selEntry struct {
	dist   float64
	id     int32
	bucket int32
}

// bucketOf maps a distance of the round to its bucket: linear between
// the round's two radii, nondecreasing in dist, and total — the first
// bucket takes anything below the range, the last its top and what the
// scale cannot place (an infinite distance under a zero scale, a NaN).
func bucketOf(dist, base, scale float64) int32 {
	f := (dist - base) * scale
	if f < 1 {
		return 0
	}
	if f < selBuckets {
		return int32(f)
	}
	return selBuckets
}

// collect is one round: it raises the enumeration radius to r and hands
// every point that entered it to emit, in the order found — or, with no
// emit, leaves the admitted ones in e.sel, each with its bucket, while
// e.hist sizes the buckets and e.inRadius counts everything that
// entered, admitted or not.
func (e *RangeEnumerator) collect(r float64, admit func(id int32) bool, emit func(id int32, dist float64)) {
	e.sel, e.inRadius = e.sel[:0], 0
	clear(e.hist[:])
	if e.t.count == 0 || !(r > e.radius) {
		return
	}
	e.prev, e.radius = e.radius, r
	// The round's distances lie in (prev, radius], none below 0. Any
	// finite scale >= 0 keeps buckets monotone: one that overflows (a
	// range of a few subnormals) is capped; an infinite radius makes it 0.
	e.base = max(e.prev, 0)
	e.scale = max(0, min(selBuckets/(e.radius-e.base), math.MaxFloat64))
	e.admit, e.emit = admit, emit
	if e.treeOnly {
		e.traverse()
	} else {
		e.flatPass()
	}
	e.admit, e.emit = nil, nil
}

// take passes on or records one point found inside the radius.
func (e *RangeEnumerator) take(id int32, dist float64) {
	if e.emit != nil {
		e.emit(id, dist)
		return
	}
	e.inRadius++
	if e.admit != nil && !e.admit(id) {
		return
	}
	b := bucketOf(dist, e.base, e.scale)
	e.hist[b]++
	e.sel = append(e.sel, selEntry{dist: dist, id: id, bucket: b})
}

// traverse resolves the round on one descent from the root, and on a
// flat pass over the tail.
func (e *RangeEnumerator) traverse() {
	// The s pivot distances, which a query that scans never pays.
	for _, pv := range e.l.pivots[len(e.qp):] {
		e.qp = append(e.qp, e.dist(e.q, pv))
	}
	if e.tailFrom < e.t.Rows() {
		e.flatPass()
	}
	e.expandNode(e.l.root, false, 0)
}

// flatPass resolves the round for the rows it covers (see rowD2): the
// first call pays their squared distances in one kernel call per part;
// every call takes the live ones whose distance lies in (prev, radius],
// decided on squared distances (squaredCeil): no root for a row left out.
func (e *RangeEnumerator) flatPass() {
	t := e.t
	var gen []int32 // the generation's rows the pass covers: all, or none
	if !e.treeOnly {
		gen = e.l.rowID
	}
	tail := t.tail.rowID[e.tailFrom-t.frozen:]
	if len(e.rowD2) == 0 {
		n := len(gen) + len(tail)
		e.rowD2 = slices.Grow(e.rowD2[:0], n)[:n]
		vec.SquaredL2ToMany(e.rowD2[:len(gen)], e.q, e.l.flat[:len(gen)*t.dim], t.dim)
		vec.SquaredL2ToMany(e.rowD2[len(gen):], e.q, t.tail.flat[(e.tailFrom-t.frozen)*t.dim:], t.dim)
		e.qdist += int64(n)
	}
	e.takeWithin(e.rowD2[:len(gen)], gen)
	e.takeWithin(e.rowD2[len(gen):], tail)
}

// takeWithin takes the live rows, of ids and their squared distances
// d2s, that lie in the round. A squared distance is never negative and
// non-negative floats order as their bits, so lo < d2 <= hi is one
// unsigned compare: the rows in the round are gathered without a branch
// per row — rows in no spatial order (as handed over, before a bulk
// load) would mispredict it — and then taken.
func (e *RangeEnumerator) takeWithin(d2s []float64, ids []int32) {
	lo, hi := squaredCeil(e.prev), squaredCeil(e.radius)
	if hi < 0 {
		return
	}
	lb := int64(-1) // lo's bits, or below every distance's
	if lo >= 0 {
		lb = int64(math.Float64bits(lo))
	}
	span, hits, n := uint64(int64(math.Float64bits(hi))-lb), slices.Grow(e.hits[:0], len(d2s))[:len(d2s)], 0
	for i, d2 := range d2s {
		hits[n] = int32(i)
		if uint64(int64(math.Float64bits(d2))-lb-1) < span {
			n++
		}
	}
	e.hits = hits
	// Tree.liveID by hand, for the few thousand rows a k-NN round finds in
	// radius: 0 (live) wraps above every epoch. A tree without a dead row
	// — every read-only workload — skips the load, a cache miss per row.
	del, epoch, allLive := e.t.del, e.t.epoch, e.t.count == e.t.Rows()
	for _, i := range hits[:n] {
		if id := ids[i]; id >= 0 && (allLive || del[id].Load()-1 >= epoch) {
			e.take(id, math.Sqrt(d2s[i]))
		}
	}
}

// squaredCeil returns the largest x with sqrt(x) <= r, or -1 when no
// squared distance qualifies (r negative or NaN). The square root is
// correctly rounded, hence monotone, so d2 <= squaredCeil(r) exactly
// when sqrt(d2) <= r; r*r is within a step or two of the answer.
func squaredCeil(r float64) float64 {
	if !(r >= 0) {
		return -1
	}
	x := r * r
	for math.Sqrt(x) > r {
		x = math.Nextafter(x, 0)
	}
	for {
		up := math.Nextafter(x, math.Inf(1))
		if up == x || math.Sqrt(up) > r {
			return x
		}
		x = up
	}
}

// expandNode opens a node whose predicates passed at the round's
// radius and descends its qualifying children depth-first, like
// RangeSearch. qpd is d(q, the node's routing object), meaningless when
// hasParent is false (the root).
func (e *RangeEnumerator) expandNode(n *node, hasParent bool, qpd float64) {
	if n.leaf {
		e.scanLeaf(n, hasParent, qpd)
		return
	}
	radius := e.radius
	for i := range n.routing {
		re := &n.routing[i]
		// The reference predicates, verbatim: hyper-rings (Eq. 5's ∧
		// terms) and the M-tree parent-distance filter before the ball
		// test pays the routing-object distance.
		if ringPrune(e.qp, re.hr, radius) ||
			(hasParent && math.Abs(qpd-re.parentDist) > radius+re.radius) {
			continue
		}
		d := e.dist(e.q, re.center)
		if d > radius+re.radius {
			continue
		}
		e.expandNode(re.child, true, d)
	}
}

// scanLeaf opens a leaf as a batch, in two passes over its entry arrays.
//
//  1. Every entry's filter lower bound: |d(q,par) − PD| from the parent
//     distances, then the pivot terms |d(q,p_i) − PD_i| folded in by
//     one kernel call over the leaf's pivot-distance rows. The bound is
//     the maximum of the reference's filter quantities, so "bound > r"
//     is the reference's skip decision.
//  2. The surviving entries' exact distances. The leaf's points are
//     one run of layout rows, so each maximal stretch of live survivors
//     is one batched-kernel call over contiguous memory, emitted in
//     entry order; the kernel is bit-identical to the single-pair one,
//     and only survivors are evaluated, so DistComps is what the
//     reference's per-entry scan counts.
//
// A dead entry is not evaluated.
func (e *RangeEnumerator) scanLeaf(n *node, hasParent bool, qpd float64) {
	m := n.size()
	if m == 0 {
		return
	}
	ids := e.l.leafIDs(n)
	if cap(e.lb) < m {
		e.lb = make([]float64, m)
		e.d2 = make([]float64, m)
	}
	lb, d2 := e.lb[:m], e.d2[:m]
	prev, radius := e.prev, e.radius

	if hasParent {
		for i, pd := range n.parentDist {
			lb[i] = math.Abs(qpd - pd)
		}
	} else {
		clear(lb)
	}
	if s := len(e.qp); s > 0 {
		vec.MaxAbsDiffToMany(lb, e.qp, n.pivotDist, s)
	}

	dim := e.t.dim
	first := int(n.first)
	flat := e.l.flat[first*dim : (first+m)*dim]
	evaluated := 0
	for i := 0; i < m; {
		if lb[i] > radius || !e.t.liveID(ids[i]) {
			i++
			continue
		}
		j := i + 1
		for j < m && !(lb[j] > radius || !e.t.liveID(ids[j])) {
			j++
		}
		vec.SquaredL2ToMany(d2[i:j], e.q, flat[i*dim:j*dim], dim)
		evaluated += j - i
		// Within prev when a later round descends again.
		for ; i < j; i++ {
			if d := math.Sqrt(d2[i]); d <= radius && d > prev {
				e.take(ids[i], d)
			}
		}
	}
	e.qdist += int64(evaluated)
}

// dist evaluates the metric, counting it (see qdist).
func (e *RangeEnumerator) dist(a, b []float64) float64 {
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since its Reset (see qdist; a flat-pass enumeration reads
// exactly Tree.Rows however many rounds it runs): the one count of a
// range query's work, Table 2's computation cost included. The count is
// owned by the enumeration — it never includes work from other queries,
// however many run concurrently.
func (e *RangeEnumerator) DistComps() int64 { return e.qdist }
