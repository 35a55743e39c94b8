package pmtree

import (
	"math"

	"repro/internal/vec"
)

// Node splitting follows the M-tree mM_RAD promotion policy: among a
// set of candidate routing-object pairs, partition the overflowing
// entries by the generalized hyperplane (each entry goes to the nearer
// candidate) and keep the pair that minimizes the larger of the two
// covering radii. For node capacities around 16 the number of pairs is
// small enough to try all of them, which matches the quality the
// original PM-tree paper reports; for larger capacities a deterministic
// sample of pairs bounds the cost.

// maxExhaustivePairs caps the O(c²) promotion search.
const maxExhaustivePairs = 24

func (t *Tree) splitLeaf(n *node) (*routingEntry, *routingEntry) {
	c1, c2 := t.promoteLeaf(n)
	p1 := t.leafPoint(n, c1)
	p2 := t.leafPoint(n, c2)

	// Each side lists its entries of n; pd[i] is entry i's distance to
	// the routing object of the side it joined.
	var e1, e2 []int
	pd := make([]float64, len(n.ids))
	for i := range n.ids {
		d1 := t.dist(t.leafPoint(n, i), p1)
		d2 := t.dist(t.leafPoint(n, i), p2)
		if d1 <= d2 {
			pd[i] = d1
			e1 = append(e1, i)
		} else {
			pd[i] = d2
			e2 = append(e2, i)
		}
	}
	// Guard against degenerate partitions (all points identical): move
	// one entry across so both halves are non-empty.
	if len(e1) == 0 {
		e1 = append(e1, e2[len(e2)-1])
		e2 = e2[:len(e2)-1]
	}
	if len(e2) == 0 {
		e2 = append(e2, e1[len(e1)-1])
		e1 = e1[:len(e1)-1]
	}

	// Routing centers are cloned out of the store so they stay valid (and
	// do not pin stale buffers) across later store growth.
	left := t.makeLeafRouting(vec.Clone(p1), n, e1, pd)
	right := t.makeLeafRouting(vec.Clone(p2), n, e2, pd)
	return left, right
}

// promoteLeaf returns the indices of the two promoted routing objects.
func (t *Tree) promoteLeaf(leaf *node) (int, int) {
	n := len(leaf.ids)
	type pair struct{ i, j int }
	var pairs []pair
	if n*(n-1)/2 <= maxExhaustivePairs*2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
	} else {
		// Deterministic stride sample.
		for k := 0; len(pairs) < maxExhaustivePairs; k++ {
			i := (k * 7) % n
			j := (k*13 + 1) % n
			if i != j {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	best := pairs[0]
	bestCost := math.Inf(1)
	for _, pr := range pairs {
		r1, r2 := 0.0, 0.0
		pi := t.leafPoint(leaf, pr.i)
		pj := t.leafPoint(leaf, pr.j)
		for k := 0; k < n; k++ {
			d1 := t.dist(t.leafPoint(leaf, k), pi)
			d2 := t.dist(t.leafPoint(leaf, k), pj)
			if d1 <= d2 {
				if d1 > r1 {
					r1 = d1
				}
			} else if d2 > r2 {
				r2 = d2
			}
		}
		if c := math.Max(r1, r2); c < bestCost {
			bestCost = c
			best = pr
		}
	}
	return best.i, best.j
}

// makeLeafRouting gathers the listed entries of src into a new leaf
// node, pd[i] becoming entry i's parent distance, and builds its
// routing entry: covering radius from the parent distances and
// hyper-rings from the entries' exact pivot distances.
func (t *Tree) makeLeafRouting(center []float64, src *node, entries []int, pd []float64) *routingEntry {
	s := len(t.pivots)
	leaf := &node{leaf: true}
	radius := 0.0
	hr := newEmptyIntervals(s)
	for _, i := range entries {
		pivotDist := src.pivotDists(i, s)
		leaf.appendEntry(src.ids[i], src.rows[i], pd[i], pivotDist)
		if pd[i] > radius {
			radius = pd[i]
		}
		for k, d := range pivotDist {
			hr[k].extend(d)
		}
	}
	t.leafChanged(leaf)
	return &routingEntry{center: center, radius: radius, child: leaf, hr: hr}
}

func (t *Tree) splitInner(n *node) (*routingEntry, *routingEntry) {
	entries := n.routing
	c1, c2 := t.promoteInner(entries)

	var e1, e2 []routingEntry
	for _, e := range entries {
		d1 := t.dist(e.center, entries[c1].center)
		d2 := t.dist(e.center, entries[c2].center)
		if d1 <= d2 {
			e.parentDist = d1
			e1 = append(e1, e)
		} else {
			e.parentDist = d2
			e2 = append(e2, e)
		}
	}
	if len(e1) == 0 {
		e1 = append(e1, e2[len(e2)-1])
		e2 = e2[:len(e2)-1]
	}
	if len(e2) == 0 {
		e2 = append(e2, e1[len(e1)-1])
		e1 = e1[:len(e1)-1]
	}

	left := t.makeInnerRouting(entries[c1].center, e1)
	right := t.makeInnerRouting(entries[c2].center, e2)
	return left, right
}

func (t *Tree) promoteInner(entries []routingEntry) (int, int) {
	n := len(entries)
	type pair struct{ i, j int }
	var pairs []pair
	if n*(n-1)/2 <= maxExhaustivePairs*2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
	} else {
		for k := 0; len(pairs) < maxExhaustivePairs; k++ {
			i := (k * 7) % n
			j := (k*13 + 1) % n
			if i != j {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	best := pairs[0]
	bestCost := math.Inf(1)
	for _, pr := range pairs {
		r1, r2 := 0.0, 0.0
		for k := range entries {
			// Covering radius must include the child subtree's own radius.
			d1 := t.dist(entries[k].center, entries[pr.i].center) + entries[k].radius
			d2 := t.dist(entries[k].center, entries[pr.j].center) + entries[k].radius
			if d1 <= d2 {
				if d1 > r1 {
					r1 = d1
				}
			} else if d2 > r2 {
				r2 = d2
			}
		}
		if c := math.Max(r1, r2); c < bestCost {
			bestCost = c
			best = pr
		}
	}
	return best.i, best.j
}

// makeInnerRouting wraps routing entries into an inner node and builds
// the parent routing entry: the radius covers every child ball and the
// ring is the union of the children's rings.
func (t *Tree) makeInnerRouting(center []float64, entries []routingEntry) *routingEntry {
	radius := 0.0
	hr := make([]Interval, len(t.pivots))
	for i := range hr {
		hr[i] = emptyInterval()
	}
	for i := range entries {
		if r := entries[i].parentDist + entries[i].radius; r > radius {
			radius = r
		}
		for k := range entries[i].hr {
			hr[k].union(entries[i].hr[k])
		}
	}
	return &routingEntry{
		center: center,
		radius: radius,
		child:  &node{leaf: false, routing: entries},
		hr:     hr,
	}
}
