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
// Insert and Delete keep a per-leaf record of whether its rows are
// still one run; a leaf that lost it pays distances row by row until
// the next bulk load. RunEntries reports how much of the tree is still
// on the run layout.
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

// contains reports whether x lies in the interval.
func (iv Interval) contains(x float64) bool { return x >= iv.Min && x <= iv.Max }

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

// node is one tree node. A leaf keeps its entries as parallel arrays —
// entry i is (ids[i], rows[i], parentDist[i], pivotDist[i*s:(i+1)*s]),
// the PM-tree leaf's id, point, PD and pivot-distance array — rather
// than as an array of structs: a range query filters a whole leaf in
// one pass over parentDist and pivotDist (vec.MaxAbsDiffToMany) before
// it touches a single point. Points live in the tree's contiguous
// store; referencing a row instead of owning a slice keeps an entry at
// 16 bytes plus its pivot distances.
type node struct {
	leaf    bool
	routing []routingEntry // when !leaf

	ids        []int32   // when leaf
	rows       []int32   // index into Tree.points
	parentDist []float64 // distance to the leaf node's routing object
	pivotDist  []float64 // exact distances to the s pivots, entry-major
	// run records that the entries' points are one ascending run of
	// consecutive store rows, rows[i] == rows[0]+i, so a leaf scan can
	// stream them through a batched kernel instead of resolving a row
	// per entry. Bulk loading and Read lay every leaf out this way (see
	// bulkload.go); Insert, Delete and splits re-derive the fact for the
	// leaves they touch, which usually lose it until the next rebuild.
	// An empty leaf is a run.
	run bool
}

func (n *node) size() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.routing)
}

// pivotDists returns entry i's distances to the s pivots.
func (n *node) pivotDists(i, s int) []float64 { return n.pivotDist[i*s : (i+1)*s : (i+1)*s] }

// appendEntry adds one leaf entry; pd holds its pivot distances.
func (n *node) appendEntry(id, row int32, parentDist float64, pd []float64) {
	n.ids = append(n.ids, id)
	n.rows = append(n.rows, row)
	n.parentDist = append(n.parentDist, parentDist)
	n.pivotDist = append(n.pivotDist, pd...)
}

// isRun reports whether rows are consecutive ascending store rows.
func isRun(rows []int32) bool {
	for i, r := range rows {
		if r != rows[0]+int32(i) {
			return false
		}
	}
	return true
}

// Tree is a PM-tree over m-dimensional float64 points. Indexed points
// live in one contiguous store owned by the tree; leaf entries
// reference rows of it.
type Tree struct {
	root     *node
	points   *store.Store
	pivots   [][]float64
	capacity int
	dim      int
	count    int
	// runEntries counts the entries of leaves whose rows are one run
	// (see node.run), maintained by leafChanging/leafChanged.
	runEntries int
	// rowID maps a store row to the id of the point it holds, -1 for a
	// freed row, so a flat pass over the store (see RangeEnumerator) can
	// name the points it finds. Maintained by insertRow and removeEntry.
	rowID []int32
	// scanRadius is the radius from which a range enumeration scans the
	// store, scanSizedAt the point count it was derived at.
	scanRadius  float64
	scanSizedAt int

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
	// are rejected (splits need at least two entries per side).
	// 0 means DefaultCapacity.
	Capacity int
	// NumPivots is the number of global pivots s (the paper uses s=5).
	// 0 is valid and yields a plain M-tree.
	NumPivots int
	// PivotSeed seeds the pivot-selection sampling.
	PivotSeed int64
}

// New creates an empty tree for points of the given dimensionality.
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
		root:     &node{leaf: true, run: true},
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
// its row in s).
//
// The tree is bulk loaded (see bulkload.go): metric-local leaves
// packed by recursive far-pivot bisection, upper levels assembled
// bottom-up with exact radii and rings. Compared to one-at-a-time
// insertion this cuts covering radii by an order of magnitude, which
// is what the ball and ring pruning of every query path — and above
// all the closest-pair self-join — feeds on. Query results are
// unaffected (the indexed point set is identical); only query cost
// changes.
func BuildFromStore(s *store.Store, ids []int32, cfg Config) (*Tree, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("pmtree: BuildFromStore requires at least one point")
	}
	if ids != nil && len(ids) != s.Len() {
		return nil, fmt.Errorf("pmtree: got %d ids for %d points", len(ids), s.Len())
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

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.count }

// RunEntries returns how many indexed points sit in leaves whose rows
// are one consecutive run of the point store — the leaves a range
// query scans with the batched distance kernel. It equals Len after a
// bulk load or Read and decays as Insert and Delete touch leaves.
func (t *Tree) RunEntries() int { return t.runEntries }

// Rows returns the number of rows in the tree's point store, freed ones
// included: what a range enumeration evaluates once it scans.
func (t *Tree) Rows() int { return t.points.Len() }

// WalkIDs calls fn with every indexed point's id (the deserialization
// loader uses it to validate leaf ids against the index's id map).
func (t *Tree) WalkIDs(fn func(id int32)) {
	var rec func(n *node)
	rec = func(n *node) {
		if n.leaf {
			for _, id := range n.ids {
				fn(id)
			}
			return
		}
		for i := range n.routing {
			rec(n.routing[i].child)
		}
	}
	rec(t.root)
}

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// NumPivots returns the number of global pivots s.
func (t *Tree) NumPivots() int { return len(t.pivots) }

// Pivots returns the pivot points (shared slices; do not mutate).
func (t *Tree) Pivots() [][]float64 { return t.pivots }

// DistanceComputations returns the number of metric evaluations since
// the last ResetStats (inserts and queries both count).
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

// pivotDistances returns d(p, pivot_i) for every pivot.
func (t *Tree) pivotDistances(p []float64) []float64 {
	if len(t.pivots) == 0 {
		return nil
	}
	out := make([]float64, len(t.pivots))
	for i, pv := range t.pivots {
		out[i] = t.dist(p, pv)
	}
	return out
}

// leafPoint resolves leaf entry i's point as a view into the store.
func (t *Tree) leafPoint(n *node, i int) []float64 { return t.points.Row(int(n.rows[i])) }

// scanRadiusFactor places the switch between the two ways a range
// enumeration resolves a radius, as a fraction of the median covering
// radius of the tree's leaves. Below it a query ball meets a few leaves
// and the traversal evaluates a few percent of the points; above, one
// pass over the contiguous rows is faster (BenchmarkEnumerate charts
// both sides, table in the README). The crossover depends on the radius
// against the leaf size, not on n, so the tree can read it off itself.
const scanRadiusFactor = 0.25

// deriveScanRadius sets scanRadius from the leaf-level routing entries
// as they stand: after a bulk load, after Read, and whenever inserts
// have doubled the tree since (a tree grown from New has no leaves to
// measure at first). A tree whose root is its only leaf, or whose
// median leaf covers one repeated point, gets 0: every radius scans.
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
	t.scanSizedAt = t.count
}

// leafChanging and leafChanged bracket every change to a leaf's
// entries: the first takes the leaf out of the run count as it stands,
// the second re-derives its run fact and counts it back in. A freshly
// made leaf (run unset) needs only the second.
func (t *Tree) leafChanging(n *node) {
	if n.run {
		t.runEntries -= len(n.ids)
	}
}

func (t *Tree) leafChanged(n *node) {
	if n.run = isRun(n.rows); n.run {
		t.runEntries += len(n.ids)
	}
}

// Insert adds one point with the given id. The point is copied into the
// tree's store; the caller's slice is not retained.
func (t *Tree) Insert(p []float64, id int32) error {
	if len(p) != t.dim {
		return fmt.Errorf("pmtree: point has dimension %d, tree expects %d", len(p), t.dim)
	}
	row, err := t.points.Append(p)
	if err != nil {
		return fmt.Errorf("pmtree: %w", err)
	}
	return t.insertRow(row, id)
}

// insertRow inserts the point already stored at the given row.
func (t *Tree) insertRow(row, id int32) error {
	p := t.points.Row(int(row))
	pd := t.pivotDistances(p)
	left, right := t.insert(t.root, nil, p, id, pd, row)
	if right != nil {
		// Root split: grow the tree by one level.
		newRoot := &node{leaf: false, routing: []routingEntry{*left, *right}}
		t.root = newRoot
	}
	if int(row) == len(t.rowID) { // a fresh slot, not a recycled one
		t.rowID = append(t.rowID, id)
	} else {
		t.rowID[row] = id
	}
	t.count++
	if t.count >= 2*t.scanSizedAt {
		t.deriveScanRadius()
	}
	return nil
}

// insert descends recursively. parentCenter is the routing object of n
// (nil at the root). On overflow it splits n and returns both halves as
// routing entries with parentDist unset (the caller fixes them up);
// otherwise it returns (nil, nil).
func (t *Tree) insert(n *node, parentCenter []float64, p []float64, id int32, pd []float64, row int32) (*routingEntry, *routingEntry) {
	if n.leaf {
		parentDist := 0.0
		if parentCenter != nil {
			parentDist = t.dist(p, parentCenter)
		}
		t.leafChanging(n)
		n.appendEntry(id, row, parentDist, pd)
		if len(n.ids) > t.capacity {
			return t.splitLeaf(n)
		}
		t.leafChanged(n)
		return nil, nil
	}

	// Choose the subtree: prefer entries that already cover p (min
	// distance); otherwise minimum radius enlargement.
	best := -1
	bestDist := math.Inf(1)
	covered := false
	bestEnlarge := math.Inf(1)
	dists := make([]float64, len(n.routing))
	for i := range n.routing {
		e := &n.routing[i]
		d := t.dist(p, e.center)
		dists[i] = d
		if d <= e.radius {
			if !covered || d < bestDist {
				covered = true
				best = i
				bestDist = d
			}
		} else if !covered {
			if enl := d - e.radius; enl < bestEnlarge {
				bestEnlarge = enl
				best = i
				bestDist = d
			}
		}
	}
	chosen := &n.routing[best]
	if dists[best] > chosen.radius {
		chosen.radius = dists[best]
	}
	// Maintain the hyper-rings along the insertion path.
	for i, d := range pd {
		chosen.hr[i].extend(d)
	}

	left, right := t.insert(chosen.child, chosen.center, p, id, pd, row)
	if right == nil {
		return nil, nil
	}
	// The chosen child split: replace its entry with the left half and
	// append the right half.
	t.adoptEntry(left, parentCenter)
	t.adoptEntry(right, parentCenter)
	n.routing[best] = *left
	n.routing = append(n.routing, *right)
	if len(n.routing) > t.capacity {
		return t.splitInner(n)
	}
	return nil, nil
}

// Delete removes the point with the given id from the tree. p must be
// the point's coordinates: they steer the search, since only subtrees
// whose ball and hyper-rings cover p can hold it. The leaf entry is
// removed physically and its row in the tree's point store is freed
// for reuse by a later Insert; covering radii and rings are not
// shrunk — they stay conservative, so every query bound remains
// valid, just looser. Rebuild (bulk load) to re-tighten them.
//
// The hyper-ring tests are float-exact (rings are unions of the very
// pivot distances recomputed here), but upper-level covering radii
// are d(parent, child) + r_child sums whose rounding is independent
// of the point's own distance, so the guided descent can miss a
// boundary point by an ulp. A guided miss therefore falls back to an
// exhaustive scan before the id is declared missing — Delete of a
// live id never fails.
func (t *Tree) Delete(p []float64, id int32) error {
	if len(p) != t.dim {
		return fmt.Errorf("pmtree: point has dimension %d, tree expects %d", len(p), t.dim)
	}
	pd := t.pivotDistances(p)
	if !t.deleteIn(t.root, p, pd, id) && !t.deleteScan(t.root, id) {
		return fmt.Errorf("pmtree: id %d not found", id)
	}
	t.count--
	return nil
}

// removeEntry drops leaf entry i of n and frees its store row.
func (t *Tree) removeEntry(n *node, i int) {
	if err := t.points.Delete(int(n.rows[i])); err != nil {
		// Unreachable: each row is referenced by exactly one live leaf
		// entry.
		panic(fmt.Sprintf("pmtree: freeing row of id %d: %v", n.ids[i], err))
	}
	t.rowID[n.rows[i]] = -1
	t.leafChanging(n)
	last, s := len(n.ids)-1, len(t.pivots)
	n.ids[i] = n.ids[last]
	n.rows[i] = n.rows[last]
	n.parentDist[i] = n.parentDist[last]
	copy(n.pivotDist[i*s:(i+1)*s], n.pivotDist[last*s:])
	n.ids, n.rows = n.ids[:last], n.rows[:last]
	n.parentDist, n.pivotDist = n.parentDist[:last], n.pivotDist[:last*s]
	t.leafChanged(n)
}

// deleteScan is the unguided fallback: visit every leaf.
func (t *Tree) deleteScan(n *node, id int32) bool {
	if n.leaf {
		for i := range n.ids {
			if n.ids[i] == id {
				t.removeEntry(n, i)
				return true
			}
		}
		return false
	}
	for i := range n.routing {
		if t.deleteScan(n.routing[i].child, id) {
			return true
		}
	}
	return false
}

// deleteIn searches every subtree whose region covers p for the leaf
// entry with the given id and removes it. Empty leaves are left in
// place (queries iterate zero entries); their routing entries keep
// pruning as before.
func (t *Tree) deleteIn(n *node, p []float64, pd []float64, id int32) bool {
	if n.leaf {
		for i := range n.ids {
			if n.ids[i] == id {
				t.removeEntry(n, i)
				return true
			}
		}
		return false
	}
	for i := range n.routing {
		e := &n.routing[i]
		if t.dist(p, e.center) > e.radius {
			continue
		}
		covered := true
		for k, d := range pd {
			if !e.hr[k].contains(d) {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		if t.deleteIn(e.child, p, pd, id) {
			return true
		}
	}
	return false
}

// adoptEntry sets the parent distance of e relative to the node's
// routing object.
func (t *Tree) adoptEntry(e *routingEntry, parentCenter []float64) {
	if parentCenter == nil {
		e.parentDist = 0
		return
	}
	e.parentDist = t.dist(e.center, parentCenter)
}
