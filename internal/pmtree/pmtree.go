// Package pmtree implements the PM-tree of Skopal, Pokorný and Snásel
// (DASFAA 2005), the metric index PM-LSH builds in the projected space
// (paper Section 4.1).
//
// A PM-tree is an M-tree whose regions are additionally intersected
// with s "hyper-rings": for every subtree and every global pivot p_i,
// the tree stores the interval HR[i] = [min, max] of distances between
// p_i and the points below. A range query can then prune a subtree
// whose ring does not intersect the query annulus, which shrinks the
// effective region volume well below the M-tree's ball and is the
// reason Table 2 of the paper shows 5–46 % fewer distance computations
// than an R-tree on the same projected points.
//
// With s = 0 pivots the structure degrades gracefully to a plain
// M-tree, which the parameter study of Fig. 6(a) exploits.
//
// A tree stores its points in float32: every coordinate handed to it is
// rounded to the nearest float32 (clamped to ±math.MaxFloat32, so a
// finite point stays finite), and from then on the rounded point is the
// point. Every distance the tree computes or stores — a row's to a
// query, pivot, parent and ring distances, covering radii — is float64
// arithmetic over the widened coordinates, so the tree answers exactly
// as a float64 tree over the rounded points would: its filters bound the
// distances its kernel computes. Half-width rows halve the bytes a flat
// pass streams; the query itself stays float64.
//
// Memory layout is part of the design. A bulk load lays the tree's
// points out leaf-major: each leaf's points are one consecutive
// run of rows and the leaves follow each other in traversal order.
// Leaves keep their entries as parallel arrays, so a range query opens
// a leaf as a batch — all filter lower bounds in one kernel pass, then
// the survivors' distances over the leaf's contiguous rows (see
// RangeEnumerator) — and a traversal streams memory front to back.
//
// Bulk load is the only builder, and it may wait for first use. A tree
// starts as a generation: the rows it was made over, their ids and a
// delete epoch per id — all the flat pass (RangeEnumerator.Reset)
// reads. The first call that reads the nodes, pivots or switch radius —
// a traversal, a pair join, Walk — bulk loads them, once, for the tree
// and every snapshot of it (Build and BuildFromStore at once,
// NewDeferred on first use). The load swaps the rows for a leaf-major
// copy, so a generation holds one copy of them. The structure is a pure
// function of the generation's rows, in the order handed over, and the
// Config: nothing stores it, and the index layer's snapshot rebuilds a
// generation from its rows (NewDeferred with a tail).
//
// The structure is frozen once built: no node is ever split, grown or
// emptied. Insert appends the point to a tail of rows in a buffer of
// its own, which no node covers; Delete stamps the point's id with a
// delete epoch and touches nothing else. The next bulk load over the
// live points (the index layer's Compact) folds the tail in and drops
// the dead. Every query covers both parts: the traversals skip dead
// leaf entries and brute-force the tail, and the flat pass reads all
// rows anyway.
//
// # Concurrency: one writer, snapshots for readers
//
// Insert and Delete are single-writer, and neither rewrites anything a
// query reads: the nodes are frozen; the tail and its row → id array
// only grow (a write lands past the lengths an earlier reader holds, a
// growth reallocation leaves the old array to it); the generation's
// rows are replaced whole, once, by the bulk load, and a query keeps
// the ones it started on; a delete is one atomic store of an epoch.
// Snapshot captures one moment's lengths and epoch in a Tree value of
// its own, which any number of goroutines may query while the writer
// carries on with the original: a point is dead to a snapshot when its
// delete epoch is at or before the snapshot's.
//
// A tree keeps no counter of its own. The metric evaluations a query
// pays are counted by the enumeration that pays them (DistComps), which
// one query owns, so the count stays exact however many queries overlap.
package pmtree

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// DefaultCapacity is the paper's node capacity ("the maximum number of
// entries per node to 16", Section 4.2).
const DefaultCapacity = 16

// Interval is a closed distance interval [Min, Max], one per pivot per
// routing entry (the hyper-ring of the PM-tree).
type Interval struct {
	Min, Max float64
}

// extend grows the interval to include x.
func (iv *Interval) extend(x float64) {
	if x < iv.Min {
		iv.Min = x
	}
	if x > iv.Max {
		iv.Max = x
	}
}

// union grows the interval to cover o.
func (iv *Interval) union(o Interval) {
	if o.Min < iv.Min {
		iv.Min = o.Min
	}
	if o.Max > iv.Max {
		iv.Max = o.Max
	}
}

// emptyInterval is the identity for union/extend.
func emptyInterval() Interval {
	return Interval{Min: math.Inf(1), Max: math.Inf(-1)}
}

// routingEntry describes a subtree: the paper's inner-node entry with
// covered radius e.r, child pointer e.ptr, routing object e.RO, parent
// distance e.PD and hyper-rings e.HR.
type routingEntry struct {
	center     []float64  // e.RO
	radius     float64    // e.r
	child      *node      // e.ptr
	parentDist float64    // e.PD: distance from center to the parent's routing object
	hr         []Interval // e.HR: one ring per pivot
}

// node is one tree node. A leaf's entries are the consecutive rows
// first, first+1, … of the leaf-major layout: entry i is
// (layout.rowID[first+i], parentDist[i], pivotDist[i*s:(i+1)*s]) — the
// PM-tree leaf's id, PD and pivot-distance array — and its point is that
// row. The distances are parallel arrays rather than an array of
// structs: a range query filters a whole leaf in one pass over
// parentDist and pivotDist (vec.MaxAbsDiffToMany) before it touches a
// single point, and then streams the survivors' rows through a batched
// kernel.
type node struct {
	leaf    bool
	routing []routingEntry // when !leaf

	first      int32     // when leaf: the layout row of entry 0
	parentDist []float64 // distance to the leaf node's routing object
	pivotDist  []float64 // exact distances to the s pivots, entry-major
}

func (n *node) size() int {
	if n.leaf {
		return len(n.parentDist)
	}
	return len(n.routing)
}

// pivotDists returns entry i's distances to the s pivots.
func (n *node) pivotDists(i, s int) []float64 { return n.pivotDist[i*s : (i+1)*s : (i+1)*s] }

// Tree is a PM-tree over m-dimensional points, stored as float32 rows (see
// the package comment): a generation of rows with the structure over
// them, and the tail inserted since.
type Tree struct {
	dim int
	// gen is shared by the tree and its snapshots.
	gen *generation
	// frozen is the number of the generation's rows; rows [frozen,
	// Rows()) are the tail, which no node covers. Append-only.
	frozen int
	tail   layout
	count  int // live points: generation and tail rows not deleted
	// del holds the delete epoch of every id up to the largest seen: 0
	// while the point is live, the value epoch took when Delete removed
	// it, and 1 — dead from the first epoch on — for an id the tree never
	// held. A growth reallocation copies the entries and leaves the old
	// array to the snapshots holding it, whose epochs precede later deletes.
	del []atomic.Uint32
	// epoch is 1 plus the number of deletes applied (ids are int32: it
	// cannot wrap). An id is dead here when 0 < del[id] <= epoch.
	epoch uint32
}

// generation is a tree's rows and, once bulk loaded, its structure.
type generation struct {
	cfg   Config // Capacity filled in
	once  sync.Once
	loads atomic.Int32 // see BulkLoads
	// cur is the rows as a query reads them: in the order handed over
	// until the bulk load, leaf-major with the structure after it.
	cur atomic.Pointer[layout]
}

// layout is rows with their ids: a generation's, in one order, and the
// tree over them once the order is the bulk load's; or a tail.
type layout struct {
	dim  int
	flat []float32 // the rows, dim values each
	// rowID maps a row to the id of the point it holds: the leaves' id
	// array (see node), and what lets a flat pass name the points it
	// finds. -1 only where NewDeferred was handed a row whose point is
	// gone.
	rowID      []int32
	root       *node // nil until bulk loaded
	pivots     [][]float64
	scanRadius float64 // see ScanRadius
}

// row returns row i as a view into the buffer.
func (l *layout) row(i int) []float32 {
	off := i * l.dim
	return l.flat[off : off+l.dim : off+l.dim]
}

// leafIDs returns the ids of a leaf's entries (see rowID; Tree.liveID
// decides which of them still count).
func (l *layout) leafIDs(n *node) []int32 {
	return l.rowID[n.first : int(n.first)+len(n.parentDist)]
}

// leafPoint resolves leaf entry i's point as a view into the buffer.
func (l *layout) leafPoint(n *node, i int) []float32 { return l.row(int(n.first) + i) }

// appendRounded appends p to dst as the tree stores it: each coordinate
// the nearest float32, clamped to the float32 range.
func appendRounded(dst []float32, p []float64) []float32 {
	at := len(dst)
	dst = slices.Grow(dst, len(p))[:at+len(p)]
	for i, v := range p {
		switch {
		case v > math.MaxFloat32:
			v = math.MaxFloat32
		case v < -math.MaxFloat32:
			v = -math.MaxFloat32
		}
		dst[at+i] = float32(v)
	}
	return dst
}

// roundRows returns the n rows row writes, rounded, back to back: in
// GOMAXPROCS chunks, the last on the caller's goroutine, each with a
// buffer of its own.
func roundRows(n, dim int, row func(dst []float64, i int)) []float32 {
	flat := make([]float32, n*dim)
	procs := runtime.GOMAXPROCS(0)
	per := (n + procs - 1) / procs
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		chunk := func() {
			defer wg.Done()
			p := make([]float64, dim)
			for i := lo; i < hi; i++ {
				row(p, i)
				appendRounded(flat[i*dim:i*dim], p)
			}
		}
		wg.Add(1)
		if hi < n {
			go chunk()
		} else {
			chunk()
		}
	}
	wg.Wait()
	return flat
}

// widenTo writes the float32 row p into dst as float64, exactly, and
// returns dst.
func widenTo(dst []float64, p []float32) []float64 {
	dst = dst[:len(p)]
	for i, v := range p {
		dst[i] = float64(v)
	}
	return dst
}

// Config controls tree construction.
type Config struct {
	// Capacity is the maximum number of entries per node; values < 4
	// are rejected. 0 means DefaultCapacity.
	Capacity int
	// NumPivots is the number of global pivots s (the paper uses s=5).
	// 0 is valid and yields a plain M-tree.
	NumPivots int
	// PivotSeed seeds the pivot-selection sampling.
	PivotSeed int64
}

// New creates an empty tree for points of the given dimensionality: no
// pivots, no nodes to speak of, and every Insert lands in the tail.
func New(dim int, cfg Config) (*Tree, error) {
	return NewDeferredFunc(0, dim, nil, nil, 0, cfg)
}

// Snapshot returns the tree as it stands: a read-only Tree sharing t's
// generation, tail and counters, which answers from this moment's
// points whatever t inserts or deletes afterwards (see the package
// comment).
func (t *Tree) Snapshot() *Tree {
	s := *t
	return &s
}

// Build constructs a tree over data. Pivots are selected from the data
// by farthest-first traversal (maximum-separation heuristic; the paper
// chooses pivots "with the aim of making the overall volume of the
// corresponding PM-tree region the smallest") and then the points are
// bulk loaded (see BuildFromStore). The rows are copied into the
// tree's contiguous store; ids[i] is stored with data[i]; ids may be
// nil, in which case the point's index is used.
func Build(data [][]float64, ids []int32, cfg Config) (*Tree, error) {
	s, err := store.FromRows(data) // refuses an empty data set
	if err != nil {
		return nil, fmt.Errorf("pmtree: %w", err)
	}
	return BuildFromStore(s, ids, cfg)
}

// BuildFromStore constructs a tree over the rows of s, bulk loaded at
// once. The store is only read: the tree rounds the rows into a buffer
// of its own, laid out leaf by leaf in traversal order, and keeps no
// reference to s, so several trees can be built over one store and the
// caller is free to drop or reuse it. ids follows Build's contract (nil:
// a point's id is its row in s); ids must be distinct and non-negative.
//
// The tree is bulk loaded (see bulkload.go): metric-local leaves
// packed by recursive far-pivot bisection, upper levels assembled
// bottom-up with exact radii and rings.
func BuildFromStore(s *store.Store, ids []int32, cfg Config) (*Tree, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("pmtree: BuildFromStore requires at least one point")
	}
	t, err := NewDeferred(s, ids, s.Len(), cfg)
	if err != nil {
		return nil, err
	}
	t.built()
	return t, nil
}

// NewDeferred returns the tree BuildFromStore returns over the first
// frozen rows of s, bulk loaded by the first call that reads its
// structure, with the rows after them as its tail: the tree those rows
// grew into by Insert. ids follows Build's contract, except that -1
// names a row whose point is gone (Delete's, once the id it held is
// forgotten); a tail's ids ascend. The rows are rounded into a buffer
// of the tree's own (s is only read); ids is retained until the bulk
// load, and the caller must not modify it. No frozen rows make a tree
// without nodes, as New does.
func NewDeferred(s *store.Store, ids []int32, frozen int, cfg Config) (*Tree, error) {
	return NewDeferredFunc(s.Len(), s.Dim(), func(dst []float64, i int) { copy(dst, s.Row(i)) }, ids, frozen, cfg)
}

// NewDeferredFunc is NewDeferred over n rows of dim values that row
// writes, row i into dst, without a store of them: the tree keeps only
// their rounded copies. row is called once per row, for disjoint ranges
// of rows on up to GOMAXPROCS goroutines at once (the last on the
// caller's), and must not retain dst.
func NewDeferredFunc(n, dim int, row func(dst []float64, i int), ids []int32, frozen int, cfg Config) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("pmtree: dimension must be positive, got %d", dim)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < 4 {
		return nil, fmt.Errorf("pmtree: capacity must be >= 4, got %d", cfg.Capacity)
	}
	if cfg.NumPivots < 0 {
		return nil, fmt.Errorf("pmtree: NumPivots must be >= 0, got %d", cfg.NumPivots)
	}
	if frozen < 0 || frozen > n {
		return nil, fmt.Errorf("pmtree: %d frozen rows of %d", frozen, n)
	}
	if ids == nil {
		ids = make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	if len(ids) != n {
		return nil, fmt.Errorf("pmtree: got %d ids for %d points", len(ids), n)
	}
	for _, id := range ids {
		if id < -1 {
			return nil, fmt.Errorf("pmtree: negative id %d", id)
		}
	}
	// Capped slices: an Insert appends to the tail in a buffer of its own,
	// never in spare capacity behind the generation's rows or the caller's
	// ids.
	flat, split := roundRows(n, dim, row), frozen*dim
	l := &layout{dim: dim, flat: flat[:split:split], rowID: ids[:frozen:frozen]}
	if frozen == 0 {
		l.root = &node{leaf: true} // nothing to load: every row is the tail's
	}
	g := &generation{cfg: cfg}
	g.cur.Store(l)
	t := &Tree{dim: dim, gen: g, frozen: frozen,
		tail: layout{dim: dim, flat: flat[split:], rowID: ids[frozen:n:n]}}
	t.resetLiveness()
	return t, nil
}

// built returns the generation's rows with the structure over them,
// bulk loading them unless that is done — Build's load, so the tree an
// eager build makes — once for the tree and all its snapshots.
func (t *Tree) built() *layout {
	g := t.gen
	if l := g.cur.Load(); l.root != nil {
		return l
	}
	g.once.Do(func() {
		g.cur.Store(bulkLoad(g.cur.Load(), g.cfg))
		g.loads.Add(1)
	})
	return g.cur.Load()
}

// BulkLoads returns how many times the tree's generation has been bulk
// loaded: 0 until something reads its structure, 1 from then on.
func (t *Tree) BulkLoads() int { return int(t.gen.loads.Load()) }

// Len returns the number of indexed (live) points.
func (t *Tree) Len() int { return t.count }

// Rows returns the number of rows in the tree's point store, deleted
// ones and the tail included: what a flat pass evaluates.
func (t *Tree) Rows() int { return t.frozen + len(t.tail.rowID) }

// Tail returns how many of those rows no node covers: the points
// inserted since the generation began, deleted ones included, which a
// traversal brute-forces.
func (t *Tree) Tail() int { return len(t.tail.rowID) }

// IsLive reports whether the tree holds a live point with the given id.
func (t *Tree) IsLive(id int32) bool {
	return int(id) < len(t.del) && t.liveID(id)
}

// liveID is IsLive for an id taken from a row → id array: non-negative
// ones all have a delete epoch.
func (t *Tree) liveID(id int32) bool {
	if id < 0 {
		return false
	}
	d := t.del[id].Load()
	return d == 0 || d > t.epoch
}

// resetLiveness starts del, epoch and count over for the ids of the
// generation and the tail, all live, every other id up to the largest
// marked never held (-1 names none).
func (t *Tree) resetLiveness() {
	ids := slices.Concat([]int32{-1}, t.gen.cur.Load().rowID, t.tail.rowID) // -1: never empty
	t.del = make([]atomic.Uint32, int(slices.Max(ids))+1)
	t.epoch, t.count = 1, 0
	for i := range t.del {
		t.del[i].Store(1)
	}
	for _, id := range ids {
		if id >= 0 {
			t.del[id].Store(0)
			t.count++
		}
	}
}

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Points calls fn with every live point and its id, as the tree stores
// it — each coordinate rounded to float32, widened back — the
// generation's in row order, then the tail's. p is a buffer the next
// call overwrites.
func (t *Tree) Points(fn func(id int32, p []float64)) {
	p := make([]float64, t.dim)
	for _, l := range []*layout{t.gen.cur.Load(), &t.tail} {
		for i, id := range l.rowID {
			if t.liveID(id) {
				fn(id, widenTo(p, l.row(i)))
			}
		}
	}
}

// NumPivots returns the number of global pivots s.
func (t *Tree) NumPivots() int { return len(t.built().pivots) }

// scanRadiusFactor places the switch between the two ways a range
// enumeration can resolve a radius, as a fraction of the median covering
// radius of the tree's leaves. Below it a query ball meets a few leaves
// and the traversal evaluates a few percent of the points; above, one
// pass over the contiguous rows is faster (BenchmarkEnumerate charts
// both sides, table in the README). The crossover depends on the radius
// against the leaf size, not on n, so the tree can read it off itself.
const scanRadiusFactor = 0.25

// ScanRadius returns the radius from which one pass over the rows beats
// a traversal: scanRadiusFactor times the median leaf covering radius,
// 0 for a tree whose root is its only leaf or whose median leaf covers
// one repeated point.
func (t *Tree) ScanRadius() float64 { return t.built().scanRadius }

// deriveScanRadius sets scanRadius from the leaf-level routing entries,
// after a bulk load.
func (l *layout) deriveScanRadius() {
	var radii []float64
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.routing {
			if re := &n.routing[i]; re.child.leaf {
				radii = append(radii, re.radius)
			} else {
				walk(re.child)
			}
		}
	}
	walk(l.root)
	if len(radii) > 0 {
		sort.Float64s(radii)
		l.scanRadius = scanRadiusFactor * radii[len(radii)/2]
	}
}

// Insert adds one point with the given id, which must exceed every id
// the tree has held — ids only grow, and a deleted one is never reused:
// snapshots still read its delete epoch. The point is copied to the end
// of the tail, rounded (see the package comment); no node changes.
func (t *Tree) Insert(p []float64, id int32) error {
	if id < 0 {
		return fmt.Errorf("pmtree: negative id %d", id)
	}
	if len(p) != t.dim {
		return fmt.Errorf("pmtree: point has dimension %d, tree expects %d", len(p), t.dim)
	}
	if int(id) < len(t.del) {
		return fmt.Errorf("pmtree: id %d does not exceed every id the tree has held (%d)", id, len(t.del)-1)
	}
	t.growDel(int(id) + 1)
	t.tail.flat = appendRounded(t.tail.flat, p)
	t.tail.rowID = append(t.tail.rowID, id)
	t.count++
	return nil
}

// growDel extends del to n entries: the last one live (the id being
// inserted), any it skips marked never held (see Tree.del).
func (t *Tree) growDel(n int) {
	old := len(t.del)
	if n <= cap(t.del) {
		t.del = t.del[:n]
	} else {
		grown := make([]atomic.Uint32, n, max(2*cap(t.del), n, 64))
		for i := range t.del {
			grown[i].Store(t.del[i].Load())
		}
		t.del = grown
	}
	for i := old; i < n-1; i++ {
		t.del[i].Store(1)
	}
}

// Delete removes the point with the given id by stamping it with the
// next delete epoch: this tree and snapshots taken from now on skip it,
// earlier snapshots still see it, and its row stays where it is until
// the next bulk load leaves it out. Routing radii and rings keep
// covering it, so every query bound stays valid.
func (t *Tree) Delete(id int32) error {
	if !t.IsLive(id) {
		return fmt.Errorf("pmtree: id %d not found", id)
	}
	t.epoch++
	t.del[id].Store(t.epoch)
	t.count--
	return nil
}
