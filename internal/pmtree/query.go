package pmtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/heapq"
)

// Result is one point returned by a query.
type Result struct {
	ID   int32
	Dist float64
}

// RangeSearch returns every indexed point within distance r of q (the
// paper's range(q, r)), sorted by distance. It runs on the resumable
// range enumerator (one Expand to the full radius; see
// rangeSearchViaEnumerator), which applies, in order of increasing
// cost:
//
//  1. the hyper-ring filters (Eq. 5's ∧ terms) — the query's pivot
//     distances are computed once per query;
//  2. the M-tree parent-distance filter |d(q,par) − e.PD| > r + e.r;
//  3. the ball test d(q, e.RO) > r + e.r.
//
// Callers that enlarge the radius round after round (Algorithm 2)
// should hold a RangeEnumerator and call Expand per round instead:
// RangeSearch is a one-shot convenience that pays a fresh traversal
// per call.
func (t *Tree) RangeSearch(q []float64, r float64) ([]Result, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("pmtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	if r < 0 {
		return nil, fmt.Errorf("pmtree: negative radius %v", r)
	}
	if t.count == 0 {
		return nil, nil
	}
	return t.rangeSearchViaEnumerator(q, r), nil
}

// rangeSearchViaEnumerator is the public RangeSearch surviving on the
// enumerator machinery: one frontier expansion to the full radius,
// results sorted by (distance, id) exactly as the retained recursive
// implementation sorts them. The pruning tests the enumerator applies
// are the recursive traversal's skip tests rewritten as lower bounds,
// so for a single radius the two perform the identical metric
// evaluations and return bit-identical results (pinned by
// TestRangeSearchMatchesRecursiveReference).
func (t *Tree) rangeSearchViaEnumerator(q []float64, r float64) []Result {
	e := RangeEnumerator{treeOnly: true}
	// Reset cannot fail: the dimension was validated by the caller.
	if err := e.Reset(t, q); err != nil {
		panic(err)
	}
	var out []Result
	e.Expand(r, func(id int32, d float64) {
		out = append(out, Result{ID: id, Dist: d})
	})
	sortResults(out)
	return out
}

// sortResults orders query output by (distance, id).
func sortResults(out []Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}

// ringPrune reports whether the hyper-rings exclude any point within
// distance r of q: the subtree can be skipped when, for some pivot i,
// d(q,p_i) − r > HR[i].max or d(q,p_i) + r < HR[i].min.
func ringPrune(qp []float64, hr []Interval, r float64) bool {
	for i, d := range qp {
		if d-r > hr[i].Max || d+r < hr[i].Min {
			return true
		}
	}
	return false
}

// rangeSearchRec is the original depth-first range search, retained
// entry by entry as the reference implementation the streaming
// enumerator is verified against (TestRangeSearchMatchesRecursiveReference
// and the core engine's equivalence suite). qParentDist is d(q, routing
// object of n) (0 and unused at the root, where parent == nil). visit
// is called once per qualifying point, in traversal order.
func (t *Tree) rangeSearchRec(n *node, q, parent []float64, qParentDist, r float64, qp []float64, visit func(id int32, d float64)) {
	t.nodeAccesses.Add(1)
	if n.leaf {
		for i := range n.ids {
			if parent != nil && math.Abs(qParentDist-n.parentDist[i]) > r {
				continue
			}
			skip := false
			for k, d := range n.pivotDists(i, len(qp)) {
				if math.Abs(qp[k]-d) > r {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			if d := t.dist(q, t.leafPoint(n, i)); d <= r {
				visit(n.ids[i], d)
			}
		}
		return
	}
	for i := range n.routing {
		e := &n.routing[i]
		if ringPrune(qp, e.hr, r) {
			continue
		}
		if parent != nil && math.Abs(qParentDist-e.parentDist) > r+e.radius {
			continue
		}
		d := t.dist(q, e.center)
		if d > r+e.radius {
			continue
		}
		t.rangeSearchRec(e.child, q, e.center, d, r, qp, visit)
	}
}

// knnItem is a priority-queue element for best-first kNN: either a node
// (with optimistic bound dmin) or a concrete point.
type knnItem struct {
	node  *node
	isPt  bool
	id    int32
	bound float64 // dmin for nodes, exact distance for points
}

// Less orders the best-first queue by bound (heapq.Heap element).
func (a knnItem) Less(b knnItem) bool { return a.bound < b.bound }

// knnQueuePrealloc is the initial frontier capacity of one kNN search:
// large enough that typical queries never grow the heap, small enough
// to be an irrelevant one-time cost.
const knnQueuePrealloc = 128

// KNNSearch returns the k nearest indexed points to q, sorted by
// distance, using the Hjaltason–Samet best-first traversal with the
// M-tree dmin bound max(0, d(q,RO) − r) sharpened by the hyper-ring
// lower bound max_i(|d(q,p_i) − nearest ring edge|). The frontier is
// the same pointer-light generic heap the range enumerator uses;
// container/heap would box every pushed item in an interface{} — one
// allocation per surviving candidate (TestKNNSearchAllocations pins
// the difference).
func (t *Tree) KNNSearch(q []float64, k int) ([]Result, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("pmtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("pmtree: k must be positive, got %d", k)
	}
	if t.count == 0 {
		return nil, nil
	}
	qp := t.pivotDistances(q)

	var pq heapq.Heap[knnItem]
	pq.Grow(knnQueuePrealloc)
	pq.Push(knnItem{node: t.root, bound: 0})

	out := make([]Result, 0, min(k, t.count))
	for pq.Len() > 0 {
		it := pq.Pop()
		if len(out) >= k && it.bound > (out)[len(out)-1].Dist {
			break
		}
		if it.isPt {
			out = insertResult(out, Result{ID: it.id, Dist: it.bound}, k)
			continue
		}
		n := it.node
		t.nodeAccesses.Add(1)
		if n.leaf {
			for i := range n.ids {
				// Pivot lower bound: d(q,o) >= |d(q,p_i) - d(o,p_i)|.
				lb := 0.0
				for kidx, pd := range n.pivotDists(i, len(qp)) {
					if b := math.Abs(qp[kidx] - pd); b > lb {
						lb = b
					}
				}
				if len(out) >= k && lb > out[len(out)-1].Dist {
					continue
				}
				d := t.dist(q, t.leafPoint(n, i))
				if len(out) < k || d < out[len(out)-1].Dist {
					pq.Push(knnItem{isPt: true, id: n.ids[i], bound: d})
				}
			}
			continue
		}
		for i := range n.routing {
			e := &n.routing[i]
			d := t.dist(q, e.center)
			dmin := d - e.radius
			if dmin < 0 {
				dmin = 0
			}
			for kidx := range e.hr {
				var rb float64
				switch {
				case qp[kidx] < e.hr[kidx].Min:
					rb = e.hr[kidx].Min - qp[kidx]
				case qp[kidx] > e.hr[kidx].Max:
					rb = qp[kidx] - e.hr[kidx].Max
				}
				if rb > dmin {
					dmin = rb
				}
			}
			if len(out) >= k && dmin > out[len(out)-1].Dist {
				continue
			}
			pq.Push(knnItem{node: e.child, bound: dmin})
		}
	}
	return out, nil
}

// insertResult keeps out sorted ascending and capped at k.
func insertResult(out []Result, r Result, k int) []Result {
	i := sort.Search(len(out), func(i int) bool { return out[i].Dist > r.Dist })
	out = append(out, Result{})
	copy(out[i+1:], out[i:])
	out[i] = r
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// NodeInfo is the per-node summary exposed to the cost model of
// Section 4.2: the routing entry's geometry plus the fan-out N(e).
type NodeInfo struct {
	Radius     float64
	HR         []Interval
	NumEntries int
	Leaf       bool
	Depth      int
	Center     []float64
}

// Walk calls fn for every node in the tree (including the root, whose
// Radius/HR describe the union of its children as the cost model needs
// no root term: the root is always accessed).
func (t *Tree) Walk(fn func(NodeInfo)) {
	if t.count == 0 {
		return
	}
	// Synthesize a routing entry for the root covering everything.
	rootHR := make([]Interval, len(t.pivots))
	for i := range rootHR {
		rootHR[i] = emptyInterval()
	}
	rootRadius := math.Inf(1)
	t.walkNode(t.root, rootRadius, rootHR, nil, 0, fn)
}

func (t *Tree) walkNode(n *node, radius float64, hr []Interval, center []float64, depth int, fn func(NodeInfo)) {
	fn(NodeInfo{Radius: radius, HR: hr, NumEntries: n.size(), Leaf: n.leaf, Depth: depth, Center: center})
	if n.leaf {
		return
	}
	for i := range n.routing {
		e := &n.routing[i]
		t.walkNode(e.child, e.radius, e.hr, e.center, depth+1, fn)
	}
}

// Height returns the number of levels (1 for a root-only tree).
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.routing[0].child
	}
	return h
}
