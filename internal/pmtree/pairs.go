package pmtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/heapq"
	"repro/internal/vec"
)

// This file implements the dual-branch self-join traversal behind
// closest-pair search (the journal extension of PM-LSH generalizes the
// tree-over-projections design from (c,k)-ANN to (c,k)-closest-pair
// search): a best-first enumeration of the unordered pairs of indexed
// points in nondecreasing order of their exact distance in the
// (projected) space the trees share.
//
// The join runs over a forest: one or more trees over points of one
// space, each its own id space. Every pair of the forest's points lies
// inside one tree or straddles two, so the traversal starts from the
// root pairs (s, s) and (s, u) for s < u and descends them all in one
// queue. A tree index is carried with every region (pairRegion.side)
// and every pair. One tree is the forest of one.
//
// The enumerator maintains a priority queue whose items are:
//
//   - node pairs (A, B): two subtrees, keyed by a lower bound on the
//     distance between any point below A and any point below B — the
//     M-tree ball bound max(0, d(RO_A, RO_B) − r_A − r_B) sharpened,
//     when both subtrees belong to one tree, by the hyper-ring gap
//     max_i gap(HR_A[i], HR_B[i]);
//   - entry pairs (o_1, o_2): two leaf entries keyed by their exact
//     distance, computed when the leaf pair is expanded. The pivot
//     lower bound max_i |d(o_1, p_i) − d(o_2, p_i)| (free: leaf entries
//     precompute their pivot distances) pre-filters same-tree pairs that
//     already exceed the cutoff, and pairs whose exact distance exceeds
//     it are dropped instead of queued. Computing the exact distance
//     eagerly is deliberate: the trees' space is the low-dimensional
//     projected space, where one metric evaluation costs little more
//     than the pivot bound, and self-joins live or die by keeping the
//     O(n²) beyond-cutoff pairs out of the queue.
//
// Popping in bound order with ties broken toward the more refined item
// yields every pair at most once (each node has a unique parent, so an
// unordered pair of subtrees is generated from exactly one ancestor
// pair, and that from exactly one root pair) and in exactly
// nondecreasing exact distance.
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
// against the forest, by range queries per tail row on the first Next
// (see seedTail).
type PairEnumerator struct {
	ts     []*Tree   // the forest
	ls     []*layout // each tree's bulk-loaded generation; nil for a tree without live points
	pq     heapq.Heap[pairItem]
	nodes  []nodePairArena // side arena for queued node pairs
	cutoff float64
	done   bool
	seeded bool            // seedTail has run
	rq     RangeEnumerator // seedTail's range queries

	// joins caches each leaf's sweep-ready layout (entries sorted by
	// first coordinate, pivot distances gathered alongside), per tree and
	// keyed by the leaf's first row (unique per non-empty leaf). A leaf
	// participates in many leaf pairs over one enumeration, so the sort
	// is paid once per leaf, not once per pair — and the lookup must be
	// an array index, not a map probe, at tens of thousands of pair
	// expansions.
	joins [][]*leafJoin

	// stack holds node pairs whose lower bound is zero. They sort
	// before every other item, so expanding them LIFO off a plain stack
	// preserves the emission order while skipping the heap's O(log n)
	// sift per push/pop — and on heavily overlapping trees they are the
	// majority of all node pairs.
	stack []pairItem

	// qdist counts this enumeration's metric evaluations — owned by
	// exactly one enumerator, so per-query closest-pair statistics stay
	// exact when queries overlap.
	qdist int64
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
// distance in the trees' space: ID1 of tree Tree1 and ID2 of tree Tree2
// (indexes into the forest NewPairEnumerator was handed), ordered by
// (tree, id) — Tree1 <= Tree2, and ID1 < ID2 within one tree.
type PairCandidate struct {
	ID1, ID2     int32
	Tree1, Tree2 int
	Dist         float64
}

// Item refinement kinds. Greater = more refined; on equal bounds the
// heap pops the most refined item first, so finished pairs surface
// before coarser items at the same bound trigger further expansion.
const (
	kindNodePair uint8 = iota
	kindExactPair
)

// pairRegion is one side of a node pair: a subtree plus the routing
// geometry that bounds it. A root has no routing entry; center == nil
// marks "unbounded" (lower bound 0 against anything). side is the index
// of the subtree's tree in the forest.
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
// point ids, t1/t2 their trees and bound is the exact distance.
type pairItem struct {
	bound  float64
	id1    int32
	id2    int32
	kind   uint8
	t1, t2 uint8
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

// dist evaluates the metric, counting it (see qdist).
func (e *PairEnumerator) dist(a, b []float64) float64 {
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since it was created, a tail row's range queries included.
// The count is owned by the enumeration — it never includes work from
// other queries, however many run concurrently.
func (e *PairEnumerator) DistComps() int64 { return e.qdist }

// NewPairEnumerator starts a pair enumeration over a forest of at most
// 256 trees: every unordered pair of live points of the trees' union,
// in nondecreasing order of exact distance, each exactly once. The trees
// must index points of one dimension and one space (pair distances
// across trees are taken at face value); their pivots may differ. The
// enumerator reads the trees without modifying them but must not be
// used concurrently with Insert or Delete, like every query; concurrent
// enumerations and range queries are fine. A forest with fewer than two
// live points enumerates nothing.
func NewPairEnumerator(trees ...*Tree) *PairEnumerator {
	if len(trees) > math.MaxUint8+1 {
		panic(fmt.Sprintf("pmtree: a pair enumeration joins at most %d trees, got %d", math.MaxUint8+1, len(trees)))
	}
	e := &PairEnumerator{ts: trees, ls: make([]*layout, len(trees)), joins: make([][]*leafJoin, len(trees)), cutoff: math.Inf(1)}
	live := 0
	for s, t := range trees {
		if t.count > 0 {
			e.ls[s] = t.built()
			live += t.count
		}
	}
	if live < 2 {
		e.done = true
		return e
	}
	for s, t := range trees {
		if e.ls[s] == nil {
			continue
		}
		rs := pairRegion{n: e.ls[s].root, radius: math.Inf(1), side: uint8(s)}
		if t.count >= 2 {
			e.expand(rs, rs)
		}
		for u := s + 1; u < len(trees); u++ {
			if e.ls[u] != nil {
				e.expand(rs, pairRegion{n: e.ls[u].root, radius: math.Inf(1), side: uint8(u)})
			}
		}
	}
	return e
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
			return PairCandidate{ID1: it.id1, ID2: it.id2, Tree1: int(it.t1), Tree2: int(it.t2), Dist: it.bound}, true
		}
		np := &e.nodes[it.id1]
		e.expand(np.a, np.b)
	}
	e.done = true
	return PairCandidate{}, false
}

// expand replaces the node pair (a, b) with finer-grained items.
// Descending one side at a time (the inner node with the larger radius)
// keeps bounds tight; a self pair must descend both sides at once so
// every unordered child pair — including child self pairs — is
// generated exactly once.
func (e *PairEnumerator) expand(a, b pairRegion) {
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
	// pair is generated from exactly one ancestor pair — across trees
	// too, where the sides travel with the regions.
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
	t, l := e.ts[side], e.ls[side]
	cache := e.joins[side]
	if cache == nil {
		cache = make([]*leafJoin, t.frozen)
		e.joins[side] = cache
	}
	key := n.first
	if lj := cache[key]; lj != nil {
		return lj
	}
	s := len(l.pivots)
	ids := l.leafIDs(n)
	idx := make([]int, 0, len(ids))
	for i, id := range ids {
		if t.liveID(id) { // dead entries pair with nothing
			idx = append(idx, i)
		}
	}
	m := len(idx)
	sort.Slice(idx, func(a, b int) bool {
		return l.leafPoint(n, idx[a])[0] < l.leafPoint(n, idx[b])[0]
	})
	lj := &leafJoin{
		c0:  make([]float64, m),
		piv: make([]float64, 0, m*s),
		row: make([]int32, m),
		id:  make([]int32, m),
	}
	for i, at := range idx {
		lj.c0[i] = l.leafPoint(n, at)[0]
		lj.piv = append(lj.piv, n.pivotDists(at, s)...)
		lj.row[i] = n.first + int32(at)
		lj.id[i] = ids[at]
	}
	cache[key] = lj
	return lj
}

// expandLeafPair emits the qualifying entry pairs of two leaves (the
// nodes may be equal: the self-join case enumerates each unordered pair
// once) by a plane sweep over the first coordinate: with both leaves
// sorted by it, only pairs whose coordinate gap — a distance lower
// bound free of the radial concentration pivot distances suffer — is
// within the cutoff are touched at all. Survivors then reject on the
// per-pivot bounds (same-tree pairs only: each tree has pivots of its
// own) and finally the exact squared distance.
func (e *PairEnumerator) expandLeafPair(ra, rb pairRegion) {
	na, nb := ra.n, rb.n
	// A leaf without entries (the root of a tree that is all tail)
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
	la, lb := e.ls[ra.side], e.ls[rb.side]
	cross := ra.side != rb.side
	s := len(la.pivots)
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
		pt := la.row(int(a.row[i]))
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
			d2 := vec.SquaredL2(pt, lb.row(int(b.row[j])))
			if d2 > cutoff2 {
				continue
			}
			d := math.Sqrt(d2)
			if d > cutoff {
				continue
			}
			e.pushExact(d, ra.side, a.id[i], rb.side, b.id[j])
		}
	}
	e.qdist += exact
}

// pushExact queues the pair of tree ta's id a and tree tb's id b at its
// exact distance d, ordered as PairCandidate is.
func (e *PairEnumerator) pushExact(d float64, ta uint8, a int32, tb uint8, b int32) {
	if tb < ta || (tb == ta && b < a) {
		ta, a, tb, b = tb, b, ta, a
	}
	e.pq.Push(pairItem{bound: d, kind: kindExactPair, id1: a, id2: b, t1: ta, t2: tb})
}

// seedTail queues every pair within the cutoff that involves a live
// tail row, as entry pairs at their exact distances: the distances are
// the kernel's, bit for bit what expandLeafPair computes for the same
// two points once a bulk load has moved them under leaves. The cutoff
// can only shrink afterwards, and Next never pops past it.
//
// A tail row of tree s runs one range query at the cutoff per tree u:
// over u's leaves, plus all of u's tail when u > s, the tail rows after
// it when u = s, and no tail rows when u < s. A pair of two tail rows
// is therefore queried from exactly one of them — the one of the lower
// tree, or the earlier one of one tree.
func (e *PairEnumerator) seedTail() {
	var from, in uint8 // the querying row's tree and the queried one
	var id int32       // the querying row's
	emit := func(other int32, d float64) { e.pushExact(d, from, id, in, other) }
	for s, ts := range e.ts {
		if e.ls[s] == nil {
			continue
		}
		for i, tid := range ts.tail.rowID {
			if !ts.liveID(tid) {
				continue
			}
			from, id = uint8(s), tid
			for u, tu := range e.ts {
				if e.ls[u] == nil {
					continue
				}
				in = uint8(u)
				// ResetTree cannot fail: the trees index points of one dimension.
				if err := e.rq.ResetTree(tu, ts.tail.row(i)); err != nil {
					panic(err)
				}
				switch {
				case u == s:
					e.rq.tailFrom = ts.frozen + i + 1
				case u < s:
					e.rq.tailFrom = tu.Rows()
				}
				e.rq.Expand(e.cutoff, emit)
				e.qdist += e.rq.DistComps()
			}
		}
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
	// Doubling, not append's growth: one arena holds every root pair's
	// node pairs, and append's 1.25 steps past 256 entries would copy
	// it several times over.
	if len(e.nodes) == cap(e.nodes) {
		e.nodes = append(make([]nodePairArena, 0, 2*cap(e.nodes)+64), e.nodes...)
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
// apart). Ring sharpening requires one pivot set — regions of two trees
// keep the ball bound alone.
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
