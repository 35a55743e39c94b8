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
// A round resolves its radius in one of two ways.
//
//   - The flat pass. One kernel call over the leaf-major rows computes
//     every row's d², the array is kept, and each round walks it once.
//     This is every round from the tree's switch radius up
//     (scanRadiusFactor has the measured crossover) and every round
//     after an enumeration's first, whatever its radius. Algorithm 2's
//     first radius is sized to hold βn+k points, a quarter to a third of
//     the data in the projected space; a ball that size meets nearly
//     every leaf, and a traversal would evaluate 94–101% of the points
//     behind tests that reject nothing — so every k-NN query is flat
//     passes from its first round.
//   - The traversal. Only an enumeration's first round, and only under
//     the switch radius: the near-duplicate radii of SearchBall and of
//     the pair join's tail seeds, where the query ball meets few leaves.
//     It descends from the root depth-first behind RangeSearch's pruning
//     tests — hyper-rings, parent-distance filter, ball test, the same
//     predicates in the same float arithmetic as the retained recursive
//     reference (rangeSearchRef) — and keeps nothing of what they prune.
//     An opened leaf is resolved as a batch (scanLeaf); entries Delete
//     has marked dead are skipped before any of it. The tail — rows
//     inserted since the bulk load, which no node covers — is a flat
//     pass of its own beside the descent.
//
// The traversal is an accelerator for the definition above, not a second
// definition. Its kernel is the flat pass's, so the distance it computes
// for a row is bit for bit sqrt(rowD2[row]); what it adds are filters
// that, by the triangle inequality, never reject a point within r (in
// floating point a filter bound within an ulp of a distance that equals
// r could; the flat pass has no such case and is the contract).
// TestScanMatchesTree tests the traversal against it, and
// TestLeafScanMatchesRecursiveReference the batched leaf scan against
// the entry-at-a-time reference, metric evaluations included.
//
// A traversal happens once: an enumeration leaves the tree carrying
// nothing but its previous radius. Everything within that radius has
// been emitted and nothing beyond it, so the next round's flat pass
// emits exactly (previous, r] — at the price of one full pass (Rows
// evaluations) where keeping the pruned subtrees could have paid for
// the newly met leaves alone. Nothing would use that: a k-NN query at
// the default budget starts above the switch, and every other caller
// stops after one round. A treeOnly enumeration
// (RangeSearch, the pair join, the tests' reference) stays on the
// traversal: asked for a second, larger radius it descends from the root
// again and skips what lies within the previous one.
//
// The path is a function of (tree, radii so far) alone, so a replay of
// the same radii takes the same path and counts the same evaluations.

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

	// scanning: this enumeration has left the tree for the flat pass.
	// rowD2 keeps a flat pass's result, the squared distances of the
	// store rows from rowD2From on: every row once scanning, the tail
	// before; empty until the first pass.
	scanning  bool
	rowD2     []float64
	rowD2From int
	// treeOnly keeps the enumeration on the traversal at every radius and
	// in every round: RangeSearch (the cost model's range query), the pair
	// join's tail seeds and the tests' reference.
	treeOnly bool
	// tailFrom is the first row of the tail as the traversal sees it.
	// The pair enumerator raises it after Reset to leave tail rows out.
	tailFrom int

	// qdist counts this enumeration's metric evaluations since the last
	// Reset: pivot, routing-object and leaf-point distances and every
	// tail row on a traversal, every store row (dead ones included) on
	// the first flat pass over them all. Owned by one query, it stays
	// exact when queries overlap.
	qdist int64

	// pending* batch the tree's atomic statistics counters (see
	// PairEnumerator); flushed at the end of every round.
	pendingDist  int64
	pendingNodes int64
}

// NewRangeEnumerator returns an enumerator over t bound to q. Callers
// that query in a loop should keep one RangeEnumerator and Reset it
// per query instead.
func (t *Tree) NewRangeEnumerator(q []float64) (*RangeEnumerator, error) {
	e := &RangeEnumerator{}
	if err := e.Reset(t, q); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rebinds the enumerator to a tree and query point, restarting
// the enumeration at radius −∞ with all buffers reused.
func (e *RangeEnumerator) Reset(t *Tree, q []float64) error {
	if len(q) != t.dim {
		return fmt.Errorf("pmtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	e.t = t
	e.q = q
	e.radius = math.Inf(-1)
	e.qdist = 0
	e.qp = e.qp[:0]
	e.scanning = false
	e.rowD2 = e.rowD2[:0]
	e.tailFrom = t.frozen
	return nil
}

// Release drops the references the enumerator holds (tree, query), so a
// pooled enumerator does not pin a tree that a Compact has since
// replaced. Buffer capacity is kept unless it has outgrown the tree
// being released (twice its rows, plus slack): a pool never frees, and
// the buffers reach the largest tree ever queried.
func (e *RangeEnumerator) Release() {
	if e.t != nil {
		bound := 2*e.t.Rows() + 1024
		if cap(e.rowD2) > bound {
			e.rowD2 = nil
		}
		if cap(e.sel) > bound {
			e.sel = nil
		}
	}
	e.t = nil
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
	// A traversal: always when treeOnly, otherwise only a first round
	// (prev still −∞) under the switch radius.
	if e.treeOnly || (math.IsInf(e.prev, -1) && e.radius < e.t.scanRadius) {
		e.traverse()
	} else {
		e.scanning = true
		e.flatPass(0)
	}
	e.admit, e.emit = nil, nil
	e.flushStats()
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
	for _, pv := range e.t.pivots[len(e.qp):] {
		e.qp = append(e.qp, e.dist(e.q, pv))
	}
	if e.tailFrom < e.t.Rows() {
		e.flatPass(e.tailFrom)
	}
	e.expandNode(e.t.root, false, 0)
}

// flatPass resolves the radius for the store rows from `from` on: the
// first call pays their squared distances in one kernel call; every
// call takes the live ones whose distance lies in (prev, radius],
// decided on squared distances (squaredCeil): no root for a row left out.
func (e *RangeEnumerator) flatPass(from int) {
	t := e.t
	if len(e.rowD2) == 0 || e.rowD2From != from {
		n := t.Rows() - from
		e.rowD2, e.rowD2From = slices.Grow(e.rowD2[:0], n)[:n], from
		vec.SquaredL2ToMany(e.rowD2, e.q, t.flat[from*t.dim:], t.dim)
		e.pendingDist += int64(n)
		e.qdist += int64(n)
	}
	lo, hi := squaredCeil(e.prev), squaredCeil(e.radius)
	ids := t.rowID[from:][:len(e.rowD2)]
	// Tree.live by hand, for the few thousand rows a k-NN round finds in
	// radius: 0 (live) wraps above every epoch. A tree without a dead row
	// — every read-only workload — skips the load, a cache miss per row.
	del, epoch, allLive := t.del, t.epoch, t.count == len(t.rowID)
	for i, d2 := range e.rowD2 {
		if id := ids[i]; d2 <= hi && d2 > lo && id >= 0 && (allLive || del[id].Load()-1 >= epoch) {
			e.take(id, math.Sqrt(d2))
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
	e.pendingNodes++
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
//     one run of store rows, so each maximal stretch of live survivors
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
	ids := e.t.leafIDs(n)
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
	flat := e.t.flat[first*dim : (first+m)*dim]
	evaluated := 0
	for i := 0; i < m; {
		if lb[i] > radius || !e.t.rowLive(first+i) {
			i++
			continue
		}
		j := i + 1
		for j < m && !(lb[j] > radius || !e.t.rowLive(first+j)) {
			j++
		}
		vec.SquaredL2ToMany(d2[i:j], e.q, flat[i*dim:j*dim], dim)
		evaluated += j - i
		// Within prev only when a treeOnly enumeration descends again.
		for ; i < j; i++ {
			if d := math.Sqrt(d2[i]); d <= radius && d > prev {
				e.take(ids[i], d)
			}
		}
	}
	e.pendingDist += int64(evaluated)
	e.qdist += int64(evaluated)
}

// dist evaluates the metric, counting locally (see pending fields).
func (e *RangeEnumerator) dist(a, b []float64) float64 {
	e.pendingDist++
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since its Reset (see qdist; one that scans from its first
// round reads exactly Tree.Rows, one that leaves the tree after it its
// one traversal plus Tree.Rows). The count is owned by the enumeration
// — it never includes work from other queries, however many run
// concurrently — and equals the delta the tree-wide counter would show
// for this query run in isolation.
func (e *RangeEnumerator) DistComps() int64 { return e.qdist }

// flushStats moves the batched counters into the tree's atomics.
func (e *RangeEnumerator) flushStats() {
	if e.pendingDist > 0 {
		e.t.stats.distCalcs.Add(e.pendingDist)
		e.pendingDist = 0
	}
	if e.pendingNodes > 0 {
		e.t.stats.nodeAccesses.Add(e.pendingNodes)
		e.pendingNodes = 0
	}
}
