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
// Memory layout is part of the design. The tree owns one contiguous
// store of its points and a bulk load (Build, BuildFromStore) or Read
// lays it out leaf-major: each leaf's points are one consecutive run
// of rows and the leaves follow each other in traversal order. Leaves
// keep their entries as parallel arrays, so a range query opens a leaf
// as a batch — all filter lower bounds in one kernel pass, then the
// survivors' distances over the leaf's contiguous rows (see
// RangeEnumerator) — and a traversal streams memory front to back.
//
// Bulk load is the only builder. The structure is frozen once built:
// no node is ever split, grown or emptied, and every leaf stays one
// ascending run of rows. Insert appends the point to a tail of rows
// behind the leaves' in the same buffer, which no node covers; Delete
// stamps the point's id with a delete epoch and touches nothing else.
// The next bulk load over the live points (the index layer's Compact)
// folds the tail in and drops the dead. Every query covers both parts:
// the traversals skip dead leaf entries and brute-force the tail, and
// the flat pass below reads all rows anyway.
//
// The same rows are what a range enumeration falls back on when the
// tree cannot prune: from a switch radius derived from the tree's own
// leaf radii (deriveScanRadius), and in any round after its first, a
// RangeEnumerator computes every row's distance in one pass; the
// traversal serves a first round under it and RangeSearch. Answers are
// the same either way.
//
// # Concurrency: one writer, snapshots for readers
//
// Insert and Delete are single-writer, and neither rewrites anything a
// query reads: the nodes are frozen; the row buffer and the row → id
// array only grow (a write lands past the lengths an earlier reader
// holds, a growth reallocation leaves the old array to it); a delete is
// one atomic store of an epoch. Snapshot captures one moment's lengths
// and epoch in a Tree value of its own, which any number of goroutines
// may query while the writer carries on with the original: a point is
// dead to a snapshot when its delete epoch is at or before the
// snapshot's. The two statistics counters are shared by a tree and its
// snapshots (a combined total); the enumerators keep per-enumeration
// counts (DistComps) that stay exact under concurrency.
package pmtree

import (
	"fmt"
	"math"
	"sort"
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

// node is one tree node. A leaf's entries are the consecutive store
// rows first, first+1, …: entry i is (Tree.rowID[first+i],
// parentDist[i], pivotDist[i*s:(i+1)*s]) — the PM-tree leaf's id, PD and
// pivot-distance array — and its point is that row. The distances are
// parallel arrays rather than an array of structs: a range query
// filters a whole leaf in one pass over parentDist and pivotDist
// (vec.MaxAbsDiffToMany) before it touches a single point, and then
// streams the survivors' rows through a batched kernel.
type node struct {
	leaf    bool
	routing []routingEntry // when !leaf

	first      int32     // when leaf: the store row of entry 0
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

// Tree is a PM-tree over m-dimensional float64 points. Indexed points
// live in one contiguous buffer owned by the tree: the rows the leaves
// cover, in leaf order, then the tail of rows inserted since the bulk
// load.
type Tree struct {
	root     *node
	flat     []float64 // the rows, dim values each; append-only
	pivots   [][]float64
	capacity int
	dim      int
	count    int // live points: leaf entries and tail rows not deleted
	// frozen is the number of rows the leaves cover, fixed by the bulk
	// load or Read; rows [frozen, Rows()) are the tail.
	frozen int
	// rowID maps a row to the id of the point it holds: the leaves' id
	// array (see node), and what lets a flat pass name the points it finds.
	// Append-only; -1 only where Read found a row its stream marked dead.
	rowID []int32
	// del holds the delete epoch of every id up to the largest seen: 0
	// while the point is live, the value epoch took when Delete removed
	// it, and 1 — dead from the first epoch on — for an id the tree never
	// held. A growth reallocation copies the entries and leaves the old
	// array to the snapshots holding it, whose epochs precede later deletes.
	del []atomic.Uint32
	// epoch is 1 plus the number of deletes applied (ids are int32: it
	// cannot wrap). An id is dead here when 0 < del[id] <= epoch.
	epoch uint32
	// scanRadius is the radius from which a range enumeration scans the
	// rows.
	scanRadius float64

	// stats is shared with every snapshot, behind a pointer so that
	// taking one copies no atomic.
	stats *treeStats
}

// treeStats are a tree's two counters: distCalcs, every evaluation of
// the metric (it feeds the cost-model validation, Table 2), and
// nodeAccesses, the nodes queries opened. Atomic: concurrent queries
// combine their counts, each adding once per call or round, never per distance.
type treeStats struct {
	distCalcs, nodeAccesses atomic.Int64
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
	return &Tree{
		root:     &node{leaf: true},
		capacity: cfg.Capacity,
		dim:      dim,
		epoch:    1,
		stats:    &treeStats{},
	}, nil
}

// Snapshot returns the tree as it stands: a read-only Tree sharing t's
// nodes, rows and counters, which answers from this moment's points
// whatever t inserts or deletes afterwards (see the package comment).
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
	if len(data) == 0 {
		return nil, fmt.Errorf("pmtree: Build requires at least one point")
	}
	s, err := store.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("pmtree: %w", err)
	}
	return BuildFromStore(s, ids, cfg)
}

// BuildFromStore constructs a tree over the rows of s. The store is
// only read: the tree gathers the rows into a buffer of its own, laid
// out leaf by leaf in traversal order, and keeps no reference to s, so
// several trees can be built over one store and the caller is free to
// drop or reuse it. ids follows Build's contract (nil: a point's id is
// its row in s); ids must be distinct and non-negative.
//
// The tree is bulk loaded (see bulkload.go): metric-local leaves
// packed by recursive far-pivot bisection, upper levels assembled
// bottom-up with exact radii and rings.
func BuildFromStore(s *store.Store, ids []int32, cfg Config) (*Tree, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("pmtree: BuildFromStore requires at least one point")
	}
	if ids != nil && len(ids) != s.Len() {
		return nil, fmt.Errorf("pmtree: got %d ids for %d points", len(ids), s.Len())
	}
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("pmtree: negative id %d", id)
		}
	}
	t, err := New(s.Dim(), cfg)
	if err != nil {
		return nil, err
	}
	t.pivots = selectPivots(s.Rows(), cfg.NumPivots, cfg.PivotSeed)
	t.bulkLoad(s, ids)
	return t, nil
}

// Len returns the number of indexed (live) points.
func (t *Tree) Len() int { return t.count }

// Rows returns the number of rows in the tree's point store, deleted
// ones and the tail included: what a range enumeration evaluates once
// it scans.
func (t *Tree) Rows() int { return len(t.flat) / t.dim }

// Tail returns how many of those rows no node covers: the points
// inserted since the bulk load, deleted ones included, which a
// traversal brute-forces.
func (t *Tree) Tail() int { return t.Rows() - t.frozen }

// row returns row i's point as a view into the buffer.
func (t *Tree) row(i int) []float64 {
	off := i * t.dim
	return t.flat[off : off+t.dim : off+t.dim]
}

// IsLive reports whether the tree holds a live point with the given id.
func (t *Tree) IsLive(id int32) bool {
	return id >= 0 && int(id) < len(t.del) && t.live(id)
}

// live is IsLive for an id taken from rowID: non-negative ones all have
// a delete epoch.
func (t *Tree) live(id int32) bool {
	d := t.del[id].Load()
	return d == 0 || d > t.epoch
}

// rowLive reports whether the row holds a live point.
func (t *Tree) rowLive(row int) bool {
	id := t.rowID[row]
	return id >= 0 && t.live(id)
}

// WalkIDs calls fn with every indexed point's id (the deserialization
// loader uses it to validate the tree's ids against the index's id
// map).
func (t *Tree) WalkIDs(fn func(id int32)) {
	for _, id := range t.rowID {
		if id >= 0 && t.live(id) {
			fn(id)
		}
	}
}

// resetLiveness starts del and epoch over for the ids in rowID, all
// live, every other id up to the largest marked never held.
func (t *Tree) resetLiveness() {
	top := int32(-1)
	for _, id := range t.rowID {
		top = max(top, id)
	}
	t.del = make([]atomic.Uint32, int(top)+1)
	t.epoch = 1
	for i := range t.del {
		t.del[i].Store(1)
	}
	for _, id := range t.rowID {
		if id >= 0 {
			t.del[id].Store(0)
		}
	}
}

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// NumPivots returns the number of global pivots s.
func (t *Tree) NumPivots() int { return len(t.pivots) }

// Pivots returns the pivot points (shared slices; do not mutate).
func (t *Tree) Pivots() [][]float64 { return t.pivots }

// DistanceComputations returns the number of metric evaluations since
// the last ResetStats (the bulk load and queries both count).
func (t *Tree) DistanceComputations() int64 { return t.stats.distCalcs.Load() }

// NodeAccesses returns the number of nodes opened by queries since the
// last ResetStats.
func (t *Tree) NodeAccesses() int64 { return t.stats.nodeAccesses.Load() }

// ResetStats zeroes the distance and node-access counters.
func (t *Tree) ResetStats() { t.stats.distCalcs.Store(0); t.stats.nodeAccesses.Store(0) }

// leafIDs returns the ids of a leaf's entries (see rowID; live decides
// which of them still count).
func (t *Tree) leafIDs(n *node) []int32 {
	return t.rowID[n.first : int(n.first)+len(n.parentDist)]
}

// leafPoint resolves leaf entry i's point as a view into the buffer.
func (t *Tree) leafPoint(n *node, i int) []float64 { return t.row(int(n.first) + i) }

// scanRadiusFactor places the switch between the two ways a range
// enumeration resolves a radius, as a fraction of the median covering
// radius of the tree's leaves. Below it a query ball meets a few leaves
// and the traversal evaluates a few percent of the points; above, one
// pass over the contiguous rows is faster (BenchmarkEnumerate charts
// both sides, table in the README). The crossover depends on the radius
// against the leaf size, not on n, so the tree can read it off itself.
const scanRadiusFactor = 0.25

// deriveScanRadius sets scanRadius from the leaf-level routing entries,
// after a bulk load and after Read. A tree whose root is its only leaf
// — one grown from New is all tail — or whose median leaf covers one
// repeated point gets 0: every radius scans.
func (t *Tree) deriveScanRadius() {
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
	walk(t.root)
	t.scanRadius = 0
	if len(radii) > 0 {
		sort.Float64s(radii)
		t.scanRadius = scanRadiusFactor * radii[len(radii)/2]
	}
}

// Insert adds one point with the given id, which must exceed every id
// the tree has held — ids only grow, and a deleted one is never reused:
// snapshots still read its delete epoch. The point is copied to the end
// of the rows, the tail; no node changes.
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
	t.flat = append(t.flat, p...)
	t.rowID = append(t.rowID, id)
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
