package pmtree

import (
	"math"
	"sort"

	"repro/internal/heapq"
	"repro/internal/vec"
)

// This file implements the dual-branch self-join traversal behind
// closest-pair search (the journal extension of PM-LSH generalizes the
// tree-over-projections design from (c,k)-ANN to (c,k)-closest-pair
// search): a best-first enumeration of the unordered pairs of indexed
// points in nondecreasing order of their exact distance in the tree's
// (projected) space.
//
// The enumerator maintains a priority queue whose items are:
//
//   - node pairs (A, B): two subtrees, keyed by a lower bound on the
//     distance between any point below A and any point below B — the
//     M-tree ball bound max(0, d(RO_A, RO_B) − r_A − r_B) sharpened by
//     the hyper-ring gap max_i gap(HR_A[i], HR_B[i]);
//   - entry pairs (o_1, o_2): two leaf entries keyed by their exact
//     distance, computed when the leaf pair is expanded. The pivot
//     lower bound max_i |d(o_1, p_i) − d(o_2, p_i)| (free: leaf entries
//     precompute their pivot distances) pre-filters pairs that already
//     exceed the cutoff, and pairs whose exact distance exceeds it are
//     dropped instead of queued. Computing the exact distance eagerly
//     is deliberate: the tree's space is the low-dimensional projected
//     space, where one metric evaluation costs little more than the
//     pivot bound, and self-joins live or die by keeping the O(n²)
//     beyond-cutoff pairs out of the queue.
//
// Popping in bound order with ties broken toward the more refined item
// yields every pair at most once (each node has a unique parent, so an
// unordered pair of subtrees is generated from exactly one ancestor
// pair) and in exactly nondecreasing exact distance.
//
// Hot-path layout notes: heap items are 24 pointer-free bytes (node
// pair geometry lives in a side arena indexed by item.id1), so heap
// swaps neither trip GC write barriers nor copy large structs;
// zero-bound node pairs bypass the heap entirely (see stack); and each
// leaf pair is joined by a plane sweep over cached first-coordinate-
// sorted entry layouts (see leafJoin) instead of an O(capacity²) scan.
//
// The dual traversal pairs the points the leaves cover. A tree's tail —
// the rows inserted since its bulk load — is one more part joined
// against them, by one range query per tail row on the first Next (see
// seedTail).
type PairEnumerator struct {
	t      *Tree
	t2     *Tree // nil for a self-join; the second tree of a bipartite join
	pq     heapq.Heap[pairItem]
	nodes  []nodePairArena // side arena for queued node pairs
	cutoff float64
	done   bool
	seeded bool            // seedTail has run
	rq     RangeEnumerator // seedTail's range queries

	// joins caches each leaf's sweep-ready layout (entries sorted by
	// first coordinate, pivot distances gathered alongside), keyed by
	// the leaf's first row (unique per non-empty leaf). A leaf
	// participates in many leaf pairs over one enumeration, so the sort
	// is paid once per leaf, not once per pair — and the lookup must be
	// an array index, not a map probe, at tens of thousands of pair
	// expansions. joins2 is the same cache for t2's leaves (bipartite
	// joins only; rows of the two trees live in separate stores, so the
	// keys cannot share one array).
	joins  []*leafJoin
	joins2 []*leafJoin

	// stack holds node pairs whose lower bound is zero. They sort
	// before every other item, so expanding them LIFO off a plain stack
	// preserves the emission order while skipping the heap's O(log n)
	// sift per push/pop — and on heavily overlapping trees they are the
	// majority of all node pairs.
	stack []pairItem

	// qdist counts this enumeration's metric evaluations — owned by
	// exactly one enumerator, so per-query closest-pair statistics stay
	// exact when queries overlap (the tree-wide atomics below are
	// shared).
	qdist int64

	// pending batches the tree's atomic statistics counters: a self-join
	// evaluates the metric millions of times, and paying an atomic
	// add per evaluation costs more than the 15-dimensional distance
	// itself. Flushed on every Next return.
	pendingDist  int64
	pendingNodes int64
}

// leafJoin is one leaf prepared for plane-sweep joining: entry data
// reordered ascending by first point coordinate, pivot distances
// contiguous (entry-major, stride = pivot count).
type leafJoin struct {
	c0  []float64
	piv []float64
	row []int32
	id  []int32
}

// PairCandidate is one pair produced by the enumerator and its exact
// distance in the tree's space. For a self-join the ids are two
// distinct indexed points with ID1 <= ID2; for a bipartite join ID1 is
// always an id of the receiver tree and ID2 an id of the other tree
// (the two id spaces are independent, so no ordering is imposed).
type PairCandidate struct {
	ID1, ID2 int32
	Dist     float64
}

// Item refinement kinds. Greater = more refined; on equal bounds the
// heap pops the most refined item first, so finished pairs surface
// before coarser items at the same bound trigger further expansion.
const (
	kindNodePair uint8 = iota
	kindExactPair
)

// pairRegion is one side of a node pair: a subtree plus the routing
// geometry that bounds it. The root has no routing entry; center == nil
// marks "unbounded" (lower bound 0 against anything). side says which
// tree the subtree belongs to (0 = e.t, 1 = e.t2) — always 0 for a
// self-join; in a bipartite join every node pair has one region per
// side, because expansion descends one side at a time starting from
// (root of t, root of t2).
type pairRegion struct {
	n      *node
	center []float64
	radius float64
	hr     []Interval
	side   uint8
}

type nodePairArena struct{ a, b pairRegion }

// pairItem is one queue element. For kindNodePair, id1 indexes the
// enumerator's node-pair arena; for kindExactPair, id1/id2 are the
// point ids and bound is the exact distance.
type pairItem struct {
	bound float64
	id1   int32
	id2   int32
	kind  uint8
}

// Less orders the queue by bound; on equal bounds the more refined
// item pops first, so finished pairs surface before coarser items at
// the same bound trigger further expansion (heapq.Heap element —
// container/heap would box every item in an interface, and the
// enumerator pushes one item per surviving candidate pair).
func (a pairItem) Less(b pairItem) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.kind > b.kind
}

// dist evaluates the metric, counting locally (see pending fields).
func (e *PairEnumerator) dist(a, b []float64) float64 {
	e.pendingDist++
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since it was created. The count is owned by the
// enumeration — it never includes work from other queries, however
// many run concurrently.
func (e *PairEnumerator) DistComps() int64 { return e.qdist }

// flushStats moves the batched counters into the tree's atomics.
func (e *PairEnumerator) flushStats() {
	if e.pendingDist > 0 {
		e.t.stats.distCalcs.Add(e.pendingDist)
		e.pendingDist = 0
	}
	if e.pendingNodes > 0 {
		e.t.stats.nodeAccesses.Add(e.pendingNodes)
		e.pendingNodes = 0
	}
}

// NewPairEnumerator starts a pair enumeration over the tree. The
// enumerator reads the tree without modifying it (beyond the shared
// statistics counters) but must not be used concurrently with Insert
// or Delete, like every query; concurrent enumerations and range
// queries are fine. A tree with fewer than two points enumerates
// nothing.
func (t *Tree) NewPairEnumerator() *PairEnumerator {
	e := &PairEnumerator{t: t, cutoff: math.Inf(1), done: t.count < 2}
	if !e.done {
		root := pairRegion{n: t.root, radius: math.Inf(1)}
		e.expand(root, root)
	}
	return e
}

// NewBipartitePairEnumerator starts a cross-tree pair enumeration: it
// yields every pair (x, y) with x indexed by the receiver and y by
// other, in nondecreasing order of their exact distance, each exactly
// once. Both trees must index points of the same dimension (they may
// use different pivots — the hyper-ring sharpening and the per-pivot
// leaf prefilter only apply within one pivot set, so cross-tree bounds
// fall back to the routing-ball bound alone). The candidate's ID1 is
// the receiver's id and ID2 the other tree's id; the two id spaces are
// independent. Statistics (DistComps, the tree-wide counters) accrue to
// the receiver, except that a tail row's range query counts on the
// tree it searches. Either tree being empty enumerates nothing.
func (t *Tree) NewBipartitePairEnumerator(other *Tree) *PairEnumerator {
	e := &PairEnumerator{t: t, t2: other, cutoff: math.Inf(1), done: t.count < 1 || other.count < 1}
	if !e.done {
		ra := pairRegion{n: t.root, radius: math.Inf(1), side: 0}
		rb := pairRegion{n: other.root, radius: math.Inf(1), side: 1}
		e.expand(ra, rb)
	}
	return e
}

// treeOf maps a region side to its tree.
func (e *PairEnumerator) treeOf(side uint8) *Tree {
	if side == 0 {
		return e.t
	}
	return e.t2
}

// SetCutoff caps the enumeration: pairs with distance above cutoff are
// never returned, which lets the traversal prune subtree pairs whose
// lower bound already exceeds it. The cutoff can only shrink; calls
// with a larger value are ignored. After Next returns false the
// enumeration is finished for good — every remaining pair (if any)
// exceeds the cutoff in force at that time.
func (e *PairEnumerator) SetCutoff(cutoff float64) {
	if cutoff < e.cutoff {
		e.cutoff = cutoff
	}
}

// Next returns the pair with the smallest exact distance not yet
// returned, or ok == false when no pair at or below the cutoff remains.
func (e *PairEnumerator) Next() (PairCandidate, bool) {
	if e.done {
		return PairCandidate{}, false
	}
	if !e.seeded {
		e.seeded = true
		e.seedTail()
	}
	for {
		// Zero-bound node pairs sort before everything; drain them LIFO
		// before consulting the heap.
		if len(e.stack) > 0 {
			it := e.stack[len(e.stack)-1]
			e.stack = e.stack[:len(e.stack)-1]
			np := &e.nodes[it.id1]
			e.expand(np.a, np.b)
			continue
		}
		if e.pq.Len() == 0 {
			break
		}
		// The heap is popped in nondecreasing bound order, so a front
		// above the cutoff means everything left is above it too.
		if e.pq.Min().bound > e.cutoff {
			break
		}
		it := e.pq.Pop()
		if it.kind == kindExactPair {
			e.flushStats()
			return PairCandidate{ID1: it.id1, ID2: it.id2, Dist: it.bound}, true
		}
		np := &e.nodes[it.id1]
		e.expand(np.a, np.b)
	}
	e.done = true
	e.flushStats()
	return PairCandidate{}, false
}

// expand replaces the node pair (a, b) with finer-grained items.
// Descending one side at a time (the inner node with the larger radius)
// keeps bounds tight; a self pair must descend both sides at once so
// every unordered child pair — including child self pairs — is
// generated exactly once.
func (e *PairEnumerator) expand(a, b pairRegion) {
	e.pendingNodes++
	if a.n.leaf && b.n.leaf {
		e.expandLeafPair(a, b)
		return
	}
	if a.n == b.n {
		rt := a.n.routing
		for i := range rt {
			ri := regionOf(&rt[i], a.side)
			e.pushNodes(ri, ri)
			for j := i + 1; j < len(rt); j++ {
				e.pushNodes(ri, regionOf(&rt[j], a.side))
			}
		}
		return
	}
	// Distinct nodes: descend the inner one with the larger radius (a
	// leaf or smaller subtree stays whole so its bound keeps pruning).
	// The choice is a pure function of the two regions, so each node
	// pair is generated from exactly one ancestor pair — in the
	// bipartite case too, where the sides travel with the regions.
	if a.n.leaf || (!b.n.leaf && b.radius > a.radius) {
		a, b = b, a
	}
	for i := range a.n.routing {
		e.pushNodes(regionOf(&a.n.routing[i], a.side), b)
	}
}

// leafJoin returns (building and caching on first use) the leaf's
// sweep-ready layout.
func (e *PairEnumerator) leafJoin(n *node, side uint8) *leafJoin {
	t := e.treeOf(side)
	cache := &e.joins
	if side == 1 {
		cache = &e.joins2
	}
	if *cache == nil {
		*cache = make([]*leafJoin, t.frozen)
	}
	key := n.first
	if lj := (*cache)[key]; lj != nil {
		return lj
	}
	s := len(t.pivots)
	ids := t.leafIDs(n)
	idx := make([]int, 0, len(ids))
	for i, id := range ids {
		if id >= 0 && t.live(id) { // dead entries pair with nothing
			idx = append(idx, i)
		}
	}
	m := len(idx)
	sort.Slice(idx, func(a, b int) bool {
		return t.leafPoint(n, idx[a])[0] < t.leafPoint(n, idx[b])[0]
	})
	lj := &leafJoin{
		c0:  make([]float64, m),
		piv: make([]float64, 0, m*s),
		row: make([]int32, m),
		id:  make([]int32, m),
	}
	for i, at := range idx {
		lj.c0[i] = t.leafPoint(n, at)[0]
		lj.piv = append(lj.piv, n.pivotDists(at, s)...)
		lj.row[i] = n.first + int32(at)
		lj.id[i] = ids[at]
	}
	(*cache)[key] = lj
	return lj
}

// expandLeafPair emits the qualifying entry pairs of two leaves (the
// nodes may be equal: the self-join case enumerates each unordered pair
// once) by a plane sweep over the first coordinate: with both leaves
// sorted by it, only pairs whose coordinate gap — a distance lower
// bound free of the radial concentration pivot distances suffer — is
// within the cutoff are touched at all. Survivors then reject on the
// per-pivot bounds (same-tree pairs only: the two trees of a bipartite
// join have independent pivot sets) and finally the exact squared
// distance.
func (e *PairEnumerator) expandLeafPair(ra, rb pairRegion) {
	na, nb := ra.n, rb.n
	// A leaf without entries (the root of a tree that is all tail, or
	// one read from a stream written when Delete emptied leaves)
	// contributes no pairs, and leafJoin keys off the first row, so it
	// must not reach it.
	if na.size() == 0 || nb.size() == 0 {
		return
	}
	a := e.leafJoin(na, ra.side)
	b := a
	if na != nb {
		b = e.leafJoin(nb, rb.side)
	}
	ta := e.treeOf(ra.side)
	tb := e.treeOf(rb.side)
	cross := ra.side != rb.side
	s := len(ta.pivots)
	cutoff := e.cutoff
	// Squared-space rejection with a rounding margin; survivors get the
	// exact linear check below, so boundary pairs (distance == cutoff)
	// are kept without paying a sqrt per rejected pair.
	cutoff2 := cutoff * cutoff * (1 + 1e-14)
	exact := int64(0)
	lo := 0
	for i := range a.c0 {
		c0 := a.c0[i]
		var jstart int
		if na == nb {
			jstart = i + 1 // sorted self-join: j > i covers each pair once
		} else {
			for lo < len(b.c0) && b.c0[lo] < c0-cutoff {
				lo++
			}
			jstart = lo
		}
		pa := a.piv[i*s : (i+1)*s]
		pt := ta.row(int(a.row[i]))
	probe:
		for j := jstart; j < len(b.c0) && b.c0[j]-c0 <= cutoff; j++ {
			if !cross {
				off := j * s
				for p := 0; p < s; p++ {
					if d := pa[p] - b.piv[off+p]; d > cutoff || -d > cutoff {
						continue probe
					}
				}
			}
			exact++
			d2 := vec.SquaredL2(pt, tb.row(int(b.row[j])))
			if d2 > cutoff2 {
				continue
			}
			d := math.Sqrt(d2)
			if d > cutoff {
				continue
			}
			id1, id2 := a.id[i], b.id[j]
			if cross {
				// Bipartite: ID1 is always e.t's id, ID2 always e.t2's
				// (the regions may have been swapped by expand).
				if ra.side == 1 {
					id1, id2 = id2, id1
				}
			} else if id2 < id1 {
				id1, id2 = id2, id1
			}
			e.pq.Push(pairItem{bound: d, kind: kindExactPair, id1: id1, id2: id2})
		}
	}
	e.pendingDist += exact
	e.qdist += exact
}

// seedTail queues every pair within the cutoff that involves a tail
// row, as entry pairs at their exact distances: the distances are the
// kernel's, bit for bit what expandLeafPair computes for the same two
// points once a bulk load has moved them under leaves. The cutoff can
// only shrink afterwards, and Next never pops past it.
func (e *PairEnumerator) seedTail() {
	e.joinTail(e.t, e.t2)
	if e.t2 != nil {
		e.joinTail(e.t2, e.t)
	}
}

// joinTail runs one range query at the cutoff per live tail row of
// from. In a self-join (in == nil) it covers from's leaves and the tail
// rows behind the querying one, which pairs every two tail rows once.
// In a bipartite join the receiver's tail rows search all of the other
// tree, and the other tree's tail rows the receiver's leaves alone —
// its tail has met them already.
func (e *PairEnumerator) joinTail(from, in *Tree) {
	self := in == nil
	if self {
		in = from
	}
	e.rq.treeOnly = true
	var id int32 // the querying row's
	emit := func(other int32, d float64) {
		id1, id2 := id, other
		if from == e.t2 || (self && id2 < id1) {
			id1, id2 = id2, id1
		}
		e.pq.Push(pairItem{bound: d, kind: kindExactPair, id1: id1, id2: id2})
	}
	for row := from.frozen; row < from.Rows(); row++ {
		if !from.rowLive(row) {
			continue
		}
		id = from.rowID[row]
		// Reset cannot fail: both trees index points of one dimension.
		if err := e.rq.Reset(in, from.row(row)); err != nil {
			panic(err)
		}
		switch {
		case self:
			e.rq.tailFrom = row + 1
		case from == e.t2:
			e.rq.tailFrom = in.Rows()
		}
		e.rq.Expand(e.cutoff, emit)
		e.qdist += e.rq.DistComps()
	}
	e.rq.Release()
}

func regionOf(r *routingEntry, side uint8) pairRegion {
	return pairRegion{n: r.child, center: r.center, radius: r.radius, hr: r.hr, side: side}
}

func (e *PairEnumerator) pushNodes(a, b pairRegion) {
	bound := e.regionBound(a, b)
	if bound > e.cutoff {
		return
	}
	e.nodes = append(e.nodes, nodePairArena{a: a, b: b})
	it := pairItem{bound: bound, kind: kindNodePair, id1: int32(len(e.nodes) - 1)}
	if bound == 0 {
		e.stack = append(e.stack, it)
		return
	}
	e.pq.Push(it)
}

// regionBound lower-bounds the distance between any point below a and
// any point below b: the routing-ball bound sharpened by the per-pivot
// hyper-ring gaps (points below a subtree have pivot distances inside
// its rings, so disjoint rings keep the subtrees at least the gap
// apart). Ring sharpening requires one pivot set — regions from the
// two sides of a bipartite join keep the ball bound alone.
func (e *PairEnumerator) regionBound(a, b pairRegion) float64 {
	if a.n == b.n || a.center == nil || b.center == nil {
		return 0
	}
	lb := e.dist(a.center, b.center) - a.radius - b.radius
	if lb < 0 {
		lb = 0
	}
	if a.side == b.side {
		for i := range a.hr {
			if g := a.hr[i].Min - b.hr[i].Max; g > lb {
				lb = g
			}
			if g := b.hr[i].Min - a.hr[i].Max; g > lb {
				lb = g
			}
		}
	}
	return lb
}
