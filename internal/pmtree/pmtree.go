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
// behind the leaves' in the same store, which no node covers; Delete
// marks a row dead where it lies. The next bulk load over the live
// points (the index layer's Compact) folds the tail in and drops the
// dead. Every query covers both parts: the traversals skip dead leaf
// entries and brute-force the tail, and the flat pass below reads all
// rows anyway.
//
// The same store is what a range enumeration falls back on when the
// tree cannot prune: from a switch radius derived from the tree's own
// leaf radii (deriveScanRadius) a RangeEnumerator computes every row's
// distance in one pass; the traversal serves the radii under it and
// RangeSearch. Answers are the same either way.
//
// The implementation is single-writer: Build, Insert and Delete must
// not be called concurrently with queries (the index layer above holds
// a reader/writer lock). Queries themselves are read-only; the
// tree-wide distance-computation counter is shared (a combined total),
// while the enumerators additionally keep per-enumeration counts
// (DistComps) that stay exact under concurrency.
package pmtree

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/vec"
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
// live in one contiguous store owned by the tree: the rows the leaves
// cover, in leaf order, then the tail of rows inserted since the bulk
// load.
type Tree struct {
	root     *node
	points   *store.Store
	pivots   [][]float64
	capacity int
	dim      int
	count    int // live points: leaf entries and tail rows not deleted
	// frozen is the number of rows the leaves cover, fixed by the bulk
	// load or Read; rows [frozen, points.Len()) are the tail.
	frozen int
	// rowID maps a store row to the id of the point it holds, -1 once
	// deleted. It is the leaves' id array (see node) and what lets a flat
	// pass over the store (see RangeEnumerator) name the points it finds.
	rowID []int32
	// idRow inverts rowID for Delete: idRow[id] is the id's row, -1 for
	// none. Built by the first Delete and kept current from then on, so a
	// tree that is only queried never pays for it.
	idRow []int32
	// scanRadius is the radius from which a range enumeration scans the
	// store.
	scanRadius float64

	// distCalcs counts every call to the metric; it feeds the cost-model
	// validation (Table 2) and the per-query probing statistics. Atomic
	// so concurrent read-only queries stay race-free (their counts are
	// combined).
	distCalcs atomic.Int64
	// nodeAccesses counts nodes opened during queries (atomic, see
	// distCalcs).
	nodeAccesses atomic.Int64
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
	pts, err := store.New(dim)
	if err != nil {
		return nil, fmt.Errorf("pmtree: %w", err)
	}
	return &Tree{
		root:     &node{leaf: true},
		points:   pts,
		capacity: cfg.Capacity,
		dim:      dim,
	}, nil
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
	if cfg.NumPivots > 0 {
		t.pivots = selectPivotsStore(s, cfg.NumPivots, cfg.PivotSeed)
	}
	if err := t.bulkLoad(s, ids); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of indexed (live) points.
func (t *Tree) Len() int { return t.count }

// Rows returns the number of rows in the tree's point store, deleted
// ones and the tail included: what a range enumeration evaluates once
// it scans.
func (t *Tree) Rows() int { return t.points.Len() }

// Tail returns how many of those rows no node covers: the points
// inserted since the bulk load, deleted ones included, which a
// traversal brute-forces.
func (t *Tree) Tail() int { return t.points.Len() - t.frozen }

// WalkIDs calls fn with every indexed point's id (the deserialization
// loader uses it to validate the tree's ids against the index's id
// map).
func (t *Tree) WalkIDs(fn func(id int32)) {
	for _, id := range t.rowID {
		if id >= 0 {
			fn(id)
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
func (t *Tree) DistanceComputations() int64 { return t.distCalcs.Load() }

// NodeAccesses returns the number of nodes opened by queries since the
// last ResetStats.
func (t *Tree) NodeAccesses() int64 { return t.nodeAccesses.Load() }

// ResetStats zeroes the distance and node-access counters.
func (t *Tree) ResetStats() { t.distCalcs.Store(0); t.nodeAccesses.Store(0) }

func (t *Tree) dist(a, b []float64) float64 {
	t.distCalcs.Add(1)
	return vec.L2(a, b)
}

// leafIDs returns the ids of a leaf's entries, -1 where deleted.
func (t *Tree) leafIDs(n *node) []int32 {
	return t.rowID[n.first : int(n.first)+len(n.parentDist)]
}

// leafPoint resolves leaf entry i's point as a view into the store.
func (t *Tree) leafPoint(n *node, i int) []float64 { return t.points.Row(int(n.first) + i) }

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

// Insert adds one point with the given id, which must be non-negative
// and not indexed already. The point is copied to the end of the tree's
// store — the tail — and the caller's slice is not retained; no node
// changes.
func (t *Tree) Insert(p []float64, id int32) error {
	if id < 0 {
		return fmt.Errorf("pmtree: negative id %d", id)
	}
	row, err := t.points.Append(p)
	if err != nil {
		return fmt.Errorf("pmtree: %w", err)
	}
	t.rowID = append(t.rowID, id)
	if t.idRow != nil {
		t.setRow(id, row)
	}
	t.count++
	return nil
}

// setRow records id's row in idRow, growing it to hold the id.
func (t *Tree) setRow(id, row int32) {
	for int(id) >= len(t.idRow) {
		t.idRow = append(t.idRow, -1)
	}
	t.idRow[id] = row
}

// Delete removes the point with the given id by marking its row dead:
// queries skip it from now on, while the row, a leaf entry's included,
// stays where it is until the next bulk load leaves it out. Routing
// radii and rings keep covering it, so every query bound stays valid.
func (t *Tree) Delete(id int32) error {
	if t.idRow == nil {
		t.idRow = make([]int32, 0, len(t.rowID))
		for row, id := range t.rowID {
			if id >= 0 {
				t.setRow(id, int32(row))
			}
		}
	}
	if id < 0 || int(id) >= len(t.idRow) || t.idRow[id] < 0 {
		return fmt.Errorf("pmtree: id %d not found", id)
	}
	t.rowID[t.idRow[id]] = -1
	t.idRow[id] = -1
	t.count--
	return nil
}
