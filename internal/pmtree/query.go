package pmtree

import (
	"fmt"
	"math"
	"sort"
)

// Result is one point returned by a query.
type Result struct {
	ID   int32
	Dist float64
}

// RangeSearch returns every indexed point within distance r of q (the
// paper's range(q, r)), sorted by (distance, id). It is one round of
// the range enumerator at the full radius, held on the traversal, which
// applies, in order of increasing cost:
//
//  1. the hyper-ring filters (Eq. 5's ∧ terms) — the query's pivot
//     distances are computed once per query;
//  2. the M-tree parent-distance filter |d(q,par) − e.PD| > r + e.r;
//  3. the ball test d(q, e.RO) > r + e.r.
//
// These are the retained recursive traversal's skip tests rewritten as
// lower bounds, so the two perform the identical metric evaluations and
// return bit-identical results (TestRangeSearchMatchesRecursiveReference).
// Callers that enlarge the radius round after round (Algorithm 2)
// should hold a RangeEnumerator and call Expand per round instead: it
// leaves the tree for a flat pass over the rows rather than descend
// twice.
func (t *Tree) RangeSearch(q []float64, r float64) ([]Result, error) {
	if r < 0 {
		return nil, fmt.Errorf("pmtree: negative radius %v", r)
	}
	e := RangeEnumerator{treeOnly: true}
	if err := e.Reset(t, q); err != nil {
		return nil, err
	}
	var out []Result
	e.Expand(r, func(id int32, d float64) {
		out = append(out, Result{ID: id, Dist: d})
	})
	sortResults(out)
	return out, nil
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

// rangeSearchRef is the original depth-first range search, retained
// entry by entry as the reference implementation the streaming
// enumerator is verified against (TestRangeSearchMatchesRecursiveReference
// and the core engine's equivalence suite), followed by a row-at-a-time
// pass over the tail. visit is called once per qualifying point, in
// traversal order.
func (t *Tree) rangeSearchRef(q []float64, r float64, visit func(id int32, d float64)) {
	qp := make([]float64, len(t.pivots))
	for i, pv := range t.pivots {
		qp[i] = t.dist(q, pv)
	}
	t.rangeSearchRec(t.root, q, nil, 0, r, qp, visit)
	for row := t.frozen; row < t.Rows(); row++ {
		// Dead rows are evaluated too, as the enumerator's one kernel call
		// over the tail evaluates them.
		if d := t.dist(q, t.row(row)); t.rowLive(row) && d <= r {
			visit(t.rowID[row], d)
		}
	}
}

// rangeSearchRec is rangeSearchRef's recursion over the nodes.
// qParentDist is d(q, routing object of n) (0 and unused at the root,
// where parent == nil).
func (t *Tree) rangeSearchRec(n *node, q, parent []float64, qParentDist, r float64, qp []float64, visit func(id int32, d float64)) {
	t.stats.nodeAccesses.Add(1)
	if n.leaf {
		for i, id := range t.leafIDs(n) {
			if id < 0 || !t.live(id) {
				continue
			}
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
				visit(id, d)
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

// NodeInfo is the per-node summary exposed to the cost model of
// Section 4.2: the routing entry's geometry plus the fan-out N(e) (a
// leaf's entries count whether or not Delete has marked them dead).
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
