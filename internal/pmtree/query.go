package pmtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
)

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
// should hold a RangeEnumerator and call Expand per round instead: its
// flat pass evaluates each row once per query rather than descend every
// round.
func (t *Tree) RangeSearch(q []float64, r float64) ([]metrics.Neighbor, error) {
	if r < 0 {
		return nil, fmt.Errorf("pmtree: negative radius %v", r)
	}
	var e RangeEnumerator
	if err := e.ResetTree(t, q); err != nil {
		return nil, err
	}
	var out []metrics.Neighbor
	e.Expand(r, func(id int32, d float64) {
		out = append(out, metrics.Neighbor{ID: id, Dist: d})
	})
	sortResults(out)
	return out, nil
}

// sortResults orders query output by (distance, id).
func sortResults(out []metrics.Neighbor) {
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
	l := t.built()
	t.walkNode(l.root, math.Inf(1), newEmptyIntervals(len(l.pivots)), nil, 0, fn)
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
