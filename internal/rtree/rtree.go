// Package rtree implements an in-memory R-tree over low-dimensional
// points (the m≈15-dimensional projected space), the index SRS uses and
// the structure PM-LSH is compared against in Table 2 and the R-LSH
// ablation of the paper.
//
// The tree uses Guttman's quadratic split. Queries are ball range
// searches (range(q, r) in Euclidean distance) and best-first
// incremental nearest-neighbor traversal (Hjaltason–Samet), which is
// exactly the incSearch primitive SRS builds on.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/heapq"
	"repro/internal/store"
	"repro/internal/vec"
)

// DefaultCapacity matches the PM-tree comparison setup in the paper
// ("set the maximum number of entries per node to 16").
const DefaultCapacity = 16

// Rect is an axis-aligned minimum bounding rectangle.
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns the degenerate rectangle covering a single point.
func NewRect(p []float64) Rect {
	return Rect{Lo: vec.Clone(p), Hi: vec.Clone(p)}
}

// extend grows r to cover o.
func (r *Rect) extend(o Rect) {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// extendPoint grows r to cover p.
func (r *Rect) extendPoint(p []float64) {
	for i := range r.Lo {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// Volume returns the rectangle's volume (product of side lengths).
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// margin returns the sum of side lengths (used as a tie-breaker).
func (r Rect) margin() float64 {
	var s float64
	for i := range r.Lo {
		s += r.Hi[i] - r.Lo[i]
	}
	return s
}

// enlargement returns the volume increase needed for r to cover o.
func (r Rect) enlargement(o Rect) float64 {
	u := Rect{Lo: vec.Clone(r.Lo), Hi: vec.Clone(r.Hi)}
	u.extend(o)
	return u.Volume() - r.Volume()
}

// MinDistSq returns the squared distance from q to the nearest point of
// the rectangle (0 when q is inside).
func (r Rect) MinDistSq(q []float64) float64 {
	var s float64
	for i, v := range q {
		if v < r.Lo[i] {
			d := r.Lo[i] - v
			s += d * d
		} else if v > r.Hi[i] {
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// entry is either an inner entry (child non-nil, rect meaningful) or a
// leaf entry (child nil, row referencing the tree's point store; its
// degenerate rect is derived on demand by entryRect).
type entry struct {
	rect  Rect
	child *node // non-nil for inner entries
	row   int32 // store row for leaf entries
	id    int32
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an in-memory R-tree. Indexed points live in one contiguous
// store; leaf entries reference rows of it.
type Tree struct {
	root     *node
	points   *store.Store
	capacity int
	dim      int
	count    int

	// Atomic so concurrent read-only queries stay race-free (their
	// counts are combined).
	distCalcs    atomic.Int64
	nodeAccesses atomic.Int64
}

// Config controls tree construction.
type Config struct {
	// Capacity is the maximum entries per node (0 = DefaultCapacity,
	// minimum 4).
	Capacity int
}

// New creates an empty R-tree for points of the given dimensionality.
func New(dim int, cfg Config) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension must be positive, got %d", dim)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < 4 {
		return nil, fmt.Errorf("rtree: capacity must be >= 4, got %d", cfg.Capacity)
	}
	pts, err := store.New(dim)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	return &Tree{root: &node{leaf: true}, points: pts, capacity: cfg.Capacity, dim: dim}, nil
}

// Build creates a tree over data; ids may be nil (indices are used).
func Build(data [][]float64, ids []int32, cfg Config) (*Tree, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("rtree: Build requires at least one point")
	}
	if ids != nil && len(ids) != len(data) {
		return nil, fmt.Errorf("rtree: got %d ids for %d points", len(ids), len(data))
	}
	t, err := New(len(data[0]), cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range data {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		if err := t.Insert(p, id); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// leafPoint resolves a leaf entry's point as a view into the store.
func (t *Tree) leafPoint(e *entry) []float64 { return t.points.Row(int(e.row)) }

// entryRect returns the entry's bounding rectangle: the stored MBR for
// inner entries, or a degenerate view-backed rectangle for leaf
// entries. The result must be treated as read-only (extend only after
// cloning, as enlargement and the split path already do).
func (t *Tree) entryRect(e *entry) Rect {
	if e.child != nil {
		return e.rect
	}
	v := t.leafPoint(e)
	return Rect{Lo: v, Hi: v}
}

func cloneRect(r Rect) Rect {
	return Rect{Lo: vec.Clone(r.Lo), Hi: vec.Clone(r.Hi)}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.count }

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// DistanceComputations returns the point-distance counter.
func (t *Tree) DistanceComputations() int64 { return t.distCalcs.Load() }

// NodeAccesses returns the node-access counter.
func (t *Tree) NodeAccesses() int64 { return t.nodeAccesses.Load() }

// ResetStats zeroes both counters.
func (t *Tree) ResetStats() { t.distCalcs.Store(0); t.nodeAccesses.Store(0) }

// Insert adds a point with the given id. The point is copied into the
// tree's store; the caller's slice is not retained.
func (t *Tree) Insert(p []float64, id int32) error {
	if len(p) != t.dim {
		return fmt.Errorf("rtree: point has dimension %d, tree expects %d", len(p), t.dim)
	}
	row, err := t.points.Append(p)
	if err != nil {
		return fmt.Errorf("rtree: %w", err)
	}
	left, right := t.insert(t.root, t.points.Row(int(row)), id, row)
	if right != nil {
		t.root = &node{leaf: false, entries: []entry{*left, *right}}
	}
	t.count++
	return nil
}

func (t *Tree) insert(n *node, p []float64, id, row int32) (*entry, *entry) {
	if n.leaf {
		n.entries = append(n.entries, entry{row: row, id: id})
		if len(n.entries) > t.capacity {
			return t.split(n)
		}
		return nil, nil
	}
	// ChooseLeaf: least enlargement, ties by smallest volume.
	pr := NewRect(p)
	best := 0
	bestEnl := math.Inf(1)
	bestVol := math.Inf(1)
	for i := range n.entries {
		enl := n.entries[i].rect.enlargement(pr)
		vol := n.entries[i].rect.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	n.entries[best].rect.extendPoint(p)
	left, right := t.insert(n.entries[best].child, p, id, row)
	if right == nil {
		return nil, nil
	}
	n.entries[best] = *left
	n.entries = append(n.entries, *right)
	if len(n.entries) > t.capacity {
		return t.split(n)
	}
	return nil, nil
}

// split performs Guttman's quadratic split on an overflowing node.
func (t *Tree) split(n *node) (*entry, *entry) {
	es := n.entries
	// Materialize every entry's rect once (leaf rects are derived views).
	rects := make([]Rect, len(es))
	for i := range es {
		rects[i] = t.entryRect(&es[i])
	}
	// PickSeeds: the pair wasting the most volume.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(es); i++ {
		for j := i + 1; j < len(es); j++ {
			u := cloneRect(rects[i])
			u.extend(rects[j])
			waste := u.Volume() - rects[i].Volume() - rects[j].Volume()
			if waste > worst {
				worst = waste
				s1, s2 = i, j
			}
		}
	}
	g1 := []entry{es[s1]}
	g2 := []entry{es[s2]}
	r1 := cloneRect(rects[s1])
	r2 := cloneRect(rects[s2])

	rest := make([]entry, 0, len(es)-2)
	restRects := make([]Rect, 0, len(es)-2)
	for i := range es {
		if i != s1 && i != s2 {
			rest = append(rest, es[i])
			restRects = append(restRects, rects[i])
		}
	}
	minFill := (t.capacity + 1) / 2
	for len(rest) > 0 {
		// Force assignment when one group must take all the rest.
		if len(g1)+len(rest) == minFill {
			for i, e := range rest {
				g1 = append(g1, e)
				r1.extend(restRects[i])
			}
			break
		}
		if len(g2)+len(rest) == minFill {
			for i, e := range rest {
				g2 = append(g2, e)
				r2.extend(restRects[i])
			}
			break
		}
		// PickNext: entry with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i := range rest {
			d1 := r1.enlargement(restRects[i])
			d2 := r2.enlargement(restRects[i])
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestDiff = diff
				bestIdx = i
			}
		}
		e := rest[bestIdx]
		er := restRects[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		restRects = append(restRects[:bestIdx], restRects[bestIdx+1:]...)
		d1 := r1.enlargement(er)
		d2 := r2.enlargement(er)
		toFirst := d1 < d2 ||
			(d1 == d2 && (r1.Volume() < r2.Volume() ||
				(r1.Volume() == r2.Volume() && len(g1) <= len(g2))))
		if toFirst {
			g1 = append(g1, e)
			r1.extend(er)
		} else {
			g2 = append(g2, e)
			r2.extend(er)
		}
	}
	left := &entry{rect: r1, child: &node{leaf: n.leaf, entries: g1}}
	right := &entry{rect: r2, child: &node{leaf: n.leaf, entries: g2}}
	return left, right
}

// Result is one point returned by a query.
type Result struct {
	ID   int32
	Dist float64
}

// RangeSearch returns all points within Euclidean distance r of q,
// sorted by distance.
func (t *Tree) RangeSearch(q []float64, r float64) ([]Result, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("rtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	if r < 0 {
		return nil, fmt.Errorf("rtree: negative radius %v", r)
	}
	if t.count == 0 {
		return nil, nil
	}
	var out []Result
	t.rangeSearchRec(t.root, q, r*r, &out)
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

// rangeSearchRec is the depth-first range search behind RangeSearch.
func (t *Tree) rangeSearchRec(n *node, q []float64, r2 float64, out *[]Result) {
	t.nodeAccesses.Add(1)
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			t.distCalcs.Add(1)
			if d2 := vec.SquaredL2(q, t.leafPoint(e)); d2 <= r2 {
				*out = append(*out, Result{ID: e.id, Dist: math.Sqrt(d2)})
			}
		}
		return
	}
	for i := range n.entries {
		e := &n.entries[i]
		// An inner-entry MBR test costs the same order of work as a
		// point distance in the m-dimensional projected space; the
		// node-based cost model (paper Eq. 9) charges every entry of an
		// accessed node, so the counter does too.
		t.distCalcs.Add(1)
		if e.rect.MinDistSq(q) <= r2 {
			t.rangeSearchRec(e.child, q, r2, out)
		}
	}
}

// KNNSearch returns the k nearest points to q, sorted by distance.
func (t *Tree) KNNSearch(q []float64, k int) ([]Result, error) {
	if err := t.checkQuery(q, k); err != nil {
		return nil, err
	}
	if t.count == 0 {
		return nil, nil
	}
	it, err := t.NewIterator(q)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, k)
	for len(out) < k {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, Result{ID: id, Dist: d})
	}
	return out, nil
}

func (t *Tree) checkQuery(q []float64, k int) error {
	if len(q) != t.dim {
		return fmt.Errorf("rtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	if k <= 0 {
		return fmt.Errorf("rtree: k must be positive, got %d", k)
	}
	return nil
}

// Iterator yields points in increasing distance from a query — the
// incSearch primitive of SRS (best-first traversal with a global
// priority queue over nodes and points). The queue is the same
// interface-free generic heap the range enumerator uses, so pushing a
// candidate no longer boxes it into an interface{}.
type Iterator struct {
	t  *Tree
	q  []float64
	pq heapq.Heap[incItem]
}

type incItem struct {
	node   *node
	isPt   bool
	id     int32
	distSq float64
}

// Less orders the best-first queue by squared distance bound.
func (a incItem) Less(b incItem) bool { return a.distSq < b.distSq }

// NewIterator starts an incremental nearest-neighbor traversal from q.
func (t *Tree) NewIterator(q []float64) (*Iterator, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("rtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	it := &Iterator{t: t, q: q}
	if t.count > 0 {
		it.pq.Push(incItem{node: t.root})
	}
	return it, nil
}

// Next returns the next nearest point (id, distance). ok is false when
// the tree is exhausted.
func (it *Iterator) Next() (id int32, dist float64, ok bool) {
	for it.pq.Len() > 0 {
		item := it.pq.Pop()
		if item.isPt {
			return item.id, math.Sqrt(item.distSq), true
		}
		it.t.nodeAccesses.Add(1)
		n := item.node
		if n.leaf {
			for i := range n.entries {
				e := &n.entries[i]
				it.t.distCalcs.Add(1)
				it.pq.Push(incItem{isPt: true, id: e.id, distSq: vec.SquaredL2(it.q, it.t.leafPoint(e))})
			}
			continue
		}
		for i := range n.entries {
			e := &n.entries[i]
			it.pq.Push(incItem{node: e.child, distSq: e.rect.MinDistSq(it.q)})
		}
	}
	return 0, 0, false
}

// NodeInfo summarizes one node for the cost model (Eq. 9): its MBR and
// fan-out.
type NodeInfo struct {
	Rect       Rect
	NumEntries int
	Leaf       bool
	Depth      int
}

// Walk visits every node.
func (t *Tree) Walk(fn func(NodeInfo)) {
	if t.count == 0 {
		return
	}
	rootRect := NewRect(make([]float64, t.dim))
	if len(t.root.entries) > 0 {
		rootRect = cloneRect(t.entryRect(&t.root.entries[0]))
		for i := range t.root.entries[1:] {
			rootRect.extend(t.entryRect(&t.root.entries[i+1]))
		}
	}
	t.walkNode(t.root, rootRect, 0, fn)
}

func (t *Tree) walkNode(n *node, rect Rect, depth int, fn func(NodeInfo)) {
	fn(NodeInfo{Rect: rect, NumEntries: len(n.entries), Leaf: n.leaf, Depth: depth})
	if n.leaf {
		return
	}
	for i := range n.entries {
		t.walkNode(n.entries[i].child, n.entries[i].rect, depth+1, fn)
	}
}

// Height returns the number of levels.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.entries[0].child
	}
	return h
}
