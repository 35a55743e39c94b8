package pmtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
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
// traversal order. Counts are local and added to the tree's once.
func (t *Tree) rangeSearchRef(q []float64, r float64, visit func(id int32, d float64)) {
	var dists, nodes int64
	dist := func(p []float64) float64 {
		dists++
		return vec.L2(q, p)
	}
	qp := make([]float64, len(t.pivots))
	for i, pv := range t.pivots {
		qp[i] = dist(pv)
	}
	// qParentDist is d(q, n's routing object); unused at the root (parent nil).
	var rec func(n *node, parent []float64, qParentDist float64)
	rec = func(n *node, parent []float64, qParentDist float64) {
		nodes++
		if n.leaf {
		entries:
			for i, id := range t.leafIDs(n) {
				if id < 0 || !t.live(id) {
					continue
				}
				if parent != nil && math.Abs(qParentDist-n.parentDist[i]) > r {
					continue
				}
				for k, d := range n.pivotDists(i, len(qp)) {
					if math.Abs(qp[k]-d) > r {
						continue entries
					}
				}
				if d := dist(t.leafPoint(n, i)); d <= r {
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
			d := dist(e.center)
			if d > r+e.radius {
				continue
			}
			rec(e.child, e.center, d)
		}
	}
	rec(t.root, nil, 0)
	for row := t.frozen; row < t.Rows(); row++ {
		// Dead rows are evaluated too, as the enumerator's one kernel call
		// over the tail evaluates them.
		if d := dist(t.row(row)); t.rowLive(row) && d <= r {
			visit(t.rowID[row], d)
		}
	}
	t.stats.distCalcs.Add(dists)
	t.stats.nodeAccesses.Add(nodes)
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
	t.walkNode(t.root, math.Inf(1), newEmptyIntervals(len(t.pivots)), nil, 0, fn)
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
