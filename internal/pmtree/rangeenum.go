package pmtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// This file implements the resumable range-expansion traversal behind
// Algorithm 2's radius-enlarging loop. The (c,k)-ANN engine issues
// range queries of geometrically growing radius (r ← c·r) over the same
// tree and the same query point; restarting RangeSearch from the root
// on every enlargement re-traverses every node and re-materializes
// every previously seen candidate, only to have the caller dedup them
// away — the same re-hashing-from-scratch cost QALSH's incremental
// virtual rehashing (and this package's PairEnumerator) exist to avoid.
//
// A RangeEnumerator instead keeps a frozen frontier of not-yet-
// qualified work:
//
//   - node items: a subtree some pruning predicate (hyper-ring,
//     parent-distance filter, or — once its routing-object distance is
//     paid — the ball test) rejected at the current radius;
//   - point items: a leaf entry whose filter lower bound — or, once
//     paid, exact distance — exceeds the current radius.
//
// Expand(r) resolves every frontier item whose bound entered the
// radius, applying EXACTLY the pruning tests RangeSearch applies — the
// same predicates, in the same float arithmetic, against the current
// radius — and streams the qualifying leaf entries through a callback
// (Nearest, the selecting form of the same round, records them instead);
// everything still pruned stays frozen, so the next round resumes
// where the last one stopped instead of re-descending from the root.
// Metric evaluations — query-to-routing-object and query-to-point
// alike — are paid at most once per query, not once per round.
//
// Exactness is by construction, not by epsilon:
//
//   - Leaf-entry bounds are the float-exact complement of the
//     reference's skip tests: the frozen bound is the maximum of the
//     very quantities (|d(q,par) − PD|, |d(q,p_i) − PD_i|, and later
//     the exact distance) the recursive traversal compares against r,
//     so "bound ≤ r" IS the reference's accept decision at r, ulp for
//     ulp, and no re-check is needed.
//   - Node predicates mix r into the comparison (d > r + e.r,
//     d(q,p_i) − r > HR.max), which has no single precomputable
//     complement threshold in float arithmetic. Frozen node items
//     therefore carry only a scheduling bound — nextafter(r, +∞) at
//     freeze time, the smallest radius at which the verdict could
//     change — and re-run the reference predicates verbatim when
//     thawed, re-freezing if still pruned. A re-check is a handful of
//     float compares (the routing-object distance is cached after its
//     first evaluation); the restart loop paid the same predicates
//     every round plus the full re-traversal under them.
//
// All predicates are monotone in r (fl(x−r) is nonincreasing and
// fl(r+y) nondecreasing in r even in float arithmetic), so an ancestor
// that qualified at some radius qualifies at every larger one — a
// frozen point can never sit under a node the reference would have
// re-pruned at the larger radius. Expand(r) hence emits exactly the
// points RangeSearch(q, r) accepts that earlier rounds did not, and
// the union over a round sequence reproduces RangeSearch(q, r_final)
// element for element (RangeSearch and the equivalence tests pin this
// against the retained recursive implementation, distance-computation
// counts included).
//
// An opened leaf is resolved as a batch (scanLeaf): the filter bounds of
// all its entries in one pass, then the exact distances of the entries
// the filter let through — one kernel call per stretch of survivors,
// a leaf's points being one run of store rows for the life of the tree
// — then emit or freeze in entry order. The bounds and distances are
// the values the reference's entry-at-a-time scan computes, bit for
// bit, and nothing the filter rejected is evaluated, so results and
// counts are the reference's. Entries Delete has marked dead are
// skipped before any of it.
//
// The tail — rows inserted since the bulk load, which no node covers —
// is not traversed at all: it is a flat pass in small (see below), one
// kernel call over its contiguous rows on the first round and a select
// over the kept distances on every round.
//
// The frontier is deliberately NOT a priority queue: a best-first heap
// spends an O(log n) sift with cache-missing swaps on every freeze, and
// typical leaves freeze several beyond-radius entries per opened leaf.
// A round never needs the minimum — it resolves every qualifying item
// whatever the order, and no consumer wants a sorted delta: Expand's
// callers take the points as they come, and Nearest, which k-NN
// verification calls for the nearest βn+k, selects them by buckets of
// distance from the round's record afterwards — so freezing is a plain
// append and each round makes one linear compaction pass over the
// surviving items. Items stay 24 pointer-free bytes (node
// geometry lives in a side arena indexed by item.ref, the pairs.go
// layout), and statistics are batched locally and flushed per round
// like the pair enumerator's counters.
//
// The traversal is one of two ways a round resolves a radius. Its
// predicates pay while the query ball meets few leaves; Algorithm 2's
// first radius is sized to hold βn+k points, a quarter to a third of
// the data in the projected space, and a ball that size meets nearly
// every leaf — the traversal then evaluates 94–101% of the points
// behind tests that reject nothing. From the tree's switch radius up
// (scanRadiusFactor has the measured crossover) it scans instead: one
// vec.SquaredL2ToMany call over the leaf-major store computes every
// row's squared distance, the array is kept, and each round walks it
// once, taking the live rows whose distance lies in (previous radius,
// r] exactly as the traversal takes its leaf entries.
//
// Both ways find the same points with the same bits. The kernel is the
// one scanLeaf and, through vec.L2, a thawed point item use, so
// sqrt(rowD2[row]) IS the distance the traversal computes for that
// row, and the select applies the traversal's final d <= r to it. What
// the traversal adds are filters that, by the triangle inequality,
// never reject a point within r (in floating point a filter bound
// within an ulp of a distance that equals r could; the scan has no such
// case); TestScanMatchesTree pins the equality. It is also why an
// enumeration can leave the tree mid-query carrying nothing but its
// previous radius: by the traversal's contract everything within that
// radius has been emitted and nothing beyond it, so the scan emits
// exactly (previous, r] and the frontier is dropped. The switch is
// one-way and a function of (tree, radius) alone, so a replay of the
// same radii takes the same path.

// Range-item kinds, in lifecycle order. ref indexes the node arena for
// node kinds and holds the store row for point kinds.
const (
	rkNodeCheap  uint8 = iota // node: routing-object distance not yet paid
	rkNodeReady               // node: routing-object distance cached in the arena
	rkPointLB                 // leaf entry: bound is the exact filter maximum; distance not yet paid
	rkPointExact              // leaf entry: bound is the exact distance
)

// rangeItem is one frontier element (24 bytes, pointer-free).
type rangeItem struct {
	bound float64
	ref   int32 // arena index (node kinds) or store row (point kinds)
	id    int32 // point id (point kinds)
	kind  uint8
}

// rangeNodeRef is the side-arena record of a frozen node: the routing
// entry that bounds the subtree (nil only for the root), the query's
// distance to the PARENT routing object (for the parent-distance
// filter; meaningless when hasParent is false), and the query's
// distance to this entry's own routing object once paid (rkNodeReady).
type rangeNodeRef struct {
	re        *routingEntry
	parentQ   float64
	qCenter   float64
	hasParent bool
}

// RangeEnumerator is a resumable range query over one tree. The zero
// value is ready for Reset; all internal state (frontier, arena, pivot
// and leaf buffers) is reused across Resets, so a pooled enumerator
// reaches a zero-allocation steady state.
//
// The tree must not be mutated AT ALL between Reset and the last
// Expand — not concurrently, and not between rounds either: the frozen
// frontier holds rows and ids, and neither an Insert (a tail row the
// enumeration has already passed) nor a Delete (an id it still holds)
// would reach it. A Snapshot is such a tree for as long as anyone holds
// it, which is what the index layer hands every query. Concurrent
// enumerations are fine. The query slice q is retained until the next
// Reset or Release.
type RangeEnumerator struct {
	t      *Tree
	q      []float64
	qp     []float64 // d(q, pivot_i); empty until the traversal's first use
	frozen []rangeItem
	arena  []rangeNodeRef
	radius float64
	lb, d2 []float64 // scanLeaf's per-leaf bounds and squared distances

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
	// treeOnly keeps the enumeration on the traversal at every radius:
	// RangeSearch (the cost model's range query) and the tests' reference.
	treeOnly bool
	// tailFrom is the first row of the tail as the traversal sees it.
	// The pair enumerator raises it after Reset to leave tail rows out.
	tailFrom int

	// qdist counts this enumeration's metric evaluations since the last
	// Reset: pivot, routing-object and leaf-point distances and every
	// tail row on the traversal, every store row (dead ones included)
	// once it scans.
	// Owned by one query, it stays exact when queries overlap.
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
	e.frozen = e.frozen[:0]
	e.arena = e.arena[:0]
	if t.count > 0 {
		e.arena = append(e.arena, rangeNodeRef{})
		e.frozen = append(e.frozen, rangeItem{bound: 0, ref: 0, kind: rkNodeReady})
	}
	return nil
}

// Release drops every reference the enumerator holds (tree, query, node
// arena contents), so a pooled enumerator does not pin a tree that a
// Compact has since replaced. Buffer capacity is kept unless it has
// outgrown the tree being released (twice its rows, plus slack): a pool
// never frees, and the buffers reach the largest tree ever queried.
func (e *RangeEnumerator) Release() {
	if e.t != nil {
		bound := 2*e.t.Rows() + 1024
		if cap(e.frozen) > bound {
			e.frozen = nil
		}
		if cap(e.arena) > bound {
			e.arena = nil
		}
		if cap(e.rowD2) > bound {
			e.rowD2 = nil
		}
		if cap(e.sel) > bound {
			e.sel = nil
		}
	}
	e.t = nil
	e.q = nil
	e.frozen = e.frozen[:0]
	clear(e.arena[:cap(e.arena)])
	e.arena = e.arena[:0]
}

// Expand raises the enumeration radius to r and streams every indexed
// point that RangeSearch(q, r) would accept and no earlier Expand or
// Nearest has taken — at most once per query across all calls —
// through emit as (id, exact distance). Radii are expected to be
// nondecreasing; a smaller r is a no-op (everything within it was
// already emitted). The callback must not call back into the
// enumerator. Emission order within one Expand is unspecified (and
// differs between the traversal and the flat pass).
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
	prev := e.radius
	if r > e.radius {
		e.radius = r
	}
	e.sel, e.inRadius = e.sel[:0], 0
	clear(e.hist[:])
	if e.t.count == 0 || !(e.radius > prev) {
		return
	}
	// The round's distances lie in (prev, radius], none below 0. Any
	// finite scale >= 0 keeps buckets monotone: one that overflows (a
	// range of a few subnormals) is capped; an infinite radius makes it 0.
	e.base = max(prev, 0)
	e.scale = max(0, min(selBuckets/(e.radius-e.base), math.MaxFloat64))
	e.admit, e.emit = admit, emit
	if e.scanning || (!e.treeOnly && e.radius >= e.t.scanRadius) {
		// The flat pass over every row; the frontier is dropped for good.
		e.scanning, e.frozen = true, e.frozen[:0]
		e.flatPass(0, prev)
	} else {
		e.expandTree(prev)
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

// expandTree resolves the radius on the traversal, and on a flat pass
// over the tail.
func (e *RangeEnumerator) expandTree(prev float64) {
	// The s pivot distances, which a query that scans never pays.
	for _, pv := range e.t.pivots[len(e.qp):] {
		e.qp = append(e.qp, e.dist(e.q, pv))
	}
	if e.tailFrom < e.t.Rows() {
		e.flatPass(e.tailFrom, prev)
	}
	// One compaction sweep: resolve items whose bound entered the
	// radius, keep the rest. Items frozen or re-frozen during the sweep
	// carry bound > radius by construction, so the sweep keeps them
	// when it reaches them.
	w := 0
	for i := 0; i < len(e.frozen); i++ {
		it := e.frozen[i]
		if it.bound > e.radius {
			e.frozen[w] = it
			w++
			continue
		}
		switch it.kind {
		case rkPointExact:
			e.take(it.id, it.bound)
		case rkPointLB:
			d := e.dist(e.q, e.t.row(int(it.ref)))
			if d <= e.radius {
				e.take(it.id, d)
			} else {
				e.frozen[w] = rangeItem{bound: d, ref: it.ref, id: it.id, kind: rkPointExact}
				w++
			}
		case rkNodeCheap, rkNodeReady:
			if kept, newItem := e.resolveNode(it); kept {
				e.frozen[w] = newItem
				w++
			}
		}
	}
	// The sweep visited every item — survivors, sweep-time freezes and
	// re-freezes alike — and compacted the kept ones to the front.
	e.frozen = e.frozen[:w]
}

// flatPass resolves the radius for the store rows from `from` on: the
// first call pays their squared distances in one kernel call; every
// call takes the live ones whose distance lies in (prev, radius],
// decided on squared distances (squaredCeil): no root for a row left out.
func (e *RangeEnumerator) flatPass(from int, prev float64) {
	t := e.t
	if len(e.rowD2) == 0 || e.rowD2From != from {
		n := t.Rows() - from
		e.rowD2, e.rowD2From = slices.Grow(e.rowD2[:0], n)[:n], from
		vec.SquaredL2ToMany(e.rowD2, e.q, t.flat[from*t.dim:], t.dim)
		e.pendingDist += int64(n)
		e.qdist += int64(n)
	}
	lo, hi := squaredCeil(prev), squaredCeil(e.radius)
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

// resolveNode re-runs the reference pruning predicates for a thawed
// node item at the current radius: descend if they pass, otherwise
// re-freeze with the smallest radius at which the verdict could
// change. The routing-object distance is paid at most once (cached in
// the arena across re-freezes).
func (e *RangeEnumerator) resolveNode(it rangeItem) (kept bool, newItem rangeItem) {
	ref := &e.arena[it.ref]
	re := ref.re
	if re == nil { // the root: no routing entry, no predicates
		e.expandNode(e.t.root, false, 0)
		return false, rangeItem{}
	}
	if ringPrune(e.qp, re.hr, e.radius) ||
		(ref.hasParent && math.Abs(ref.parentQ-re.parentDist) > e.radius+re.radius) {
		it.bound = math.Nextafter(e.radius, math.Inf(1))
		return true, it
	}
	if it.kind == rkNodeCheap {
		ref.qCenter = e.dist(e.q, re.center)
		it.kind = rkNodeReady
	}
	d := ref.qCenter
	if d > e.radius+re.radius {
		it.bound = math.Nextafter(e.radius, math.Inf(1))
		return true, it
	}
	e.expandNode(re.child, true, d)
	return false, rangeItem{}
}

// freezeNode parks a routing entry whose predicates failed at the
// current radius. The scheduling bound is nextafter(radius): the
// predicates are monotone in r, so no smaller radius can qualify, and
// the exact tests are re-run on thaw — the bound never decides
// anything, it only skips re-checks below the failing radius.
func (e *RangeEnumerator) freezeNode(re *routingEntry, hasParent bool, parentQ float64, kind uint8, qCenter float64) {
	e.arena = append(e.arena, rangeNodeRef{re: re, parentQ: parentQ, qCenter: qCenter, hasParent: hasParent})
	e.frozen = append(e.frozen, rangeItem{
		bound: math.Nextafter(e.radius, math.Inf(1)),
		ref:   int32(len(e.arena) - 1),
		kind:  kind,
	})
}

// expandNode opens a node whose predicates passed at the current
// radius: qualifying children are descended immediately (depth-first,
// like RangeSearch), everything else is frozen. qpd is d(q, the node's
// routing object), meaningless when hasParent is false (the root).
func (e *RangeEnumerator) expandNode(n *node, hasParent bool, qpd float64) {
	e.pendingNodes++
	radius := e.radius
	qp := e.qp
	if n.leaf {
		e.scanLeaf(n, hasParent, qpd)
		return
	}
	for i := range n.routing {
		re := &n.routing[i]
		// The reference predicates, verbatim: hyper-rings (Eq. 5's ∧
		// terms) and the M-tree parent-distance filter before the ball
		// test pays the routing-object distance.
		if ringPrune(qp, re.hr, radius) ||
			(hasParent && math.Abs(qpd-re.parentDist) > radius+re.radius) {
			e.freezeNode(re, hasParent, qpd, rkNodeCheap, 0)
			continue
		}
		d := e.dist(e.q, re.center)
		if d > radius+re.radius {
			e.freezeNode(re, hasParent, qpd, rkNodeReady, d)
			continue
		}
		e.expandNode(re.child, true, d)
	}
}

// scanLeaf opens a leaf as a batch, in three passes over its entry
// arrays.
//
//  1. Every entry's filter lower bound: |d(q,par) − PD| from the parent
//     distances, then the pivot terms |d(q,p_i) − PD_i| folded in by
//     one kernel call over the leaf's pivot-distance rows. The bound is
//     the full maximum of the reference's filter quantities — not
//     short-circuited — so that "bound ≤ r" reproduces the reference's
//     accept decision exactly at every future radius with no re-check.
//  2. The surviving entries' exact distances. The leaf's points are
//     one run of store rows, so each maximal stretch of live survivors
//     is one batched-kernel call over contiguous memory; the kernel is
//     bit-identical to the single-pair one, and only survivors are
//     evaluated, so DistComps is what the reference's per-entry scan
//     counts.
//  3. Emit or freeze, entry by entry in leaf order, which keeps the
//     emission and frontier order of an entry-at-a-time scan.
//
// A dead entry is neither evaluated nor frozen.
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
	radius := e.radius

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
		i = j
	}
	e.pendingDist += int64(evaluated)
	e.qdist += int64(evaluated)

	for i, id := range ids {
		if !e.t.rowLive(first + i) {
			continue
		}
		row := n.first + int32(i)
		if bound := lb[i]; bound > radius {
			e.frozen = append(e.frozen, rangeItem{bound: bound, ref: row, id: id, kind: rkPointLB})
		} else if d := math.Sqrt(d2[i]); d <= radius {
			e.take(id, d)
		} else {
			e.frozen = append(e.frozen, rangeItem{bound: d, ref: row, id: id, kind: rkPointExact})
		}
	}
}

// dist evaluates the metric, counting locally (see pending fields).
func (e *RangeEnumerator) dist(a, b []float64) float64 {
	e.pendingDist++
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since its Reset (see qdist; one that scans from its first
// round reads exactly Tree.Rows). The count is owned by the enumeration
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
