package pmtree

import (
	"runtime"
	"slices"
	"sort"

	"repro/internal/vec"
)

// Bulk loading, the one way a tree's structure comes to be. The M-tree
// way — descend, insert, split on overflow — builds a poor tree: the
// early shape is arbitrary, splits scatter near points across nodes,
// and leaves end up half-full with covering radii an order of magnitude
// above the local point spacing, which cripples every query's ball/ring
// pruning, most of all the closest-pair self-join (whose cost is driven
// by the number of leaf PAIRS with overlapping regions). Bulk loading
// instead clusters the points top-down and assembles the tree
// bottom-up:
//
//  1. the point set is recursively bisected: two far-apart pivot rows
//     are chosen (a double scan: the row farthest from an arbitrary
//     row, then the row farthest from that) and every row joins the
//     nearer pivot's side, until a partition fits in one leaf. A
//     median split replaces any partition that comes out more
//     imbalanced than 1:3, which bounds the recursion depth;
//  2. each leaf picks the minimax row of its partition as routing
//     object (the covering radius is as small as the partition
//     allows);
//  3. each level of routing entries is grouped into runs of capacity —
//     consecutive entries share a recursion branch and therefore lie
//     close — and the group's minimax center routes the parent.
//
// Radii, parent distances and hyper-rings are computed exactly from the
// covered points, so the regions are as tight as the clustering allows.
//
// The bisection permutes row indices, not rows, and ends with every
// leaf's rows adjacent and the leaves in traversal order. packLeaf
// copies the points out of the source rows in exactly that order, so
// the finished tree's rows are leaf-major: a leaf's points are one
// consecutive run of rows, and a traversal walks the buffer front to
// back instead of touching a random row per entry. The entry arrays
// (parent and pivot distances) are carved from tree-wide arenas in the
// same order, and the ids are the layout's row → id array itself.
// Nothing disturbs this layout afterwards: Insert appends to the tail
// and Delete only marks a row.
//
// That order is also why the load can use every core and build the same
// tree. A partition sits at a known offset off of the row permutation,
// and whatever happens below it only reorders rows inside it: it owns
// rows [off, off+len(rs)) of the arenas before any leaf is packed,
// packLeaf writes there by index, and the halves of a bisection touch
// disjoint memory, so one may run on another goroutine. A partition's
// result depends on its own rows alone and a parent concatenates left
// before right: the tree is the same at any GOMAXPROCS, and so is one
// loaded again over the same rows in the same order — which is all an
// index snapshot keeps of it.
//
// Cost: O(n log n) metric evaluations for the bisection plus
// O(n·capacity) for leaf packing — comparable to one insertion pass.

// loader is one bulk load: the rows it reads, in the order they were
// handed over, and the leaf-major layout it fills — the rows copied
// leaf by leaf with their ids — plus the entry arrays every leaf slices.
type loader struct {
	src, out   *layout
	capacity   int
	parentDist []float64
	pivotDist  []float64
}

// row returns source row i.
func (b *loader) row(i int) []float64 { return b.src.row(i) }

// spawnFloor is the partition size up to which both halves of a
// bisection stay on one goroutine: handing one over would cost more.
const spawnFloor = 512

// bulkLoad builds the tree over the rows of src, which is only read, and
// returns the leaf-major layout: src.rowID[row] is stored with each
// point.
func bulkLoad(src *layout, cfg Config) *layout {
	n, dim := len(src.rowID), src.dim
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = src.row(i)
	}
	b := &loader{
		src:        src,
		out:        &layout{dim: dim, flat: make([]float64, n*dim), rowID: make([]int32, n), pivots: selectPivots(rows, cfg.NumPivots, cfg.PivotSeed)},
		capacity:   cfg.Capacity,
		parentDist: make([]float64, n),
	}
	b.pivotDist = make([]float64, n*len(b.out.pivots))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	da := make([]float64, n) // distance-to-pivot scratch, shared down the recursion
	db := make([]float64, n)
	// A goroutine beyond the caller's holds a slot while it runs; at
	// GOMAXPROCS = 1 there is none, and the send below never succeeds.
	slots := make(chan struct{}, runtime.GOMAXPROCS(0)-1)

	// rec loads the partition rs, rows [off, off+len(rs)) of the arenas,
	// appending its leaf-level routing entries, in row order, to the
	// level one goroutine fills. mm carries a partition's minimax result
	// (aligned with the current ordering of rs) down the recursion so each
	// partition's O(m²) matrix is computed once, not re-derived by the
	// refinement check and again by packLeaf.
	var rec func(off int, rs []int32, da, db []float64, mm *minimaxResult, level *[]routingEntry)
	// halves loads rs[:mid] then rs[mid:], the right half on another
	// goroutine when one is free and the partition is worth it.
	halves := func(off, mid int, rs []int32, da, db []float64, mmL, mmR *minimaxResult, level *[]routingEntry) {
		if len(rs) > spawnFloor {
			select {
			case slots <- struct{}{}:
				var right []routingEntry
				done := make(chan struct{})
				go func() {
					rec(off+mid, rs[mid:], da[mid:], db[mid:], mmR, &right)
					<-slots
					close(done)
				}()
				rec(off, rs[:mid], da[:mid], db[:mid], mmL, level)
				<-done
				*level = append(*level, right...)
				return
			default:
			}
		}
		rec(off, rs[:mid], da[:mid], db[:mid], mmL, level)
		rec(off+mid, rs[mid:], da[mid:], db[mid:], mmR, level)
	}
	rec = func(off int, rs []int32, da, db []float64, mm *minimaxResult, level *[]routingEntry) {
		if len(rs) > b.capacity {
			halves(off, b.bisect(rs, da, db, false), rs, da, db, nil, nil, level)
			return
		}
		if mm == nil {
			mm = b.minimax(rs)
		}
		// Refinement: a leaf-sized chunk still splits when both halves'
		// covering radii fall under half the chunk's — the chunk
		// straddles distinct point groups, and two tight partial leaves
		// prune far better than one full loose one. Natural groups stop
		// splitting (no half reduces the radius much), so this
		// terminates, as does the radius halving itself. The probe
		// partitions a scratch copy so a rejected split leaves rs — and
		// therefore mm's index alignment — intact.
		if len(rs) >= 6 && mm.radius > 0 {
			probe := append([]int32(nil), rs...)
			pda := make([]float64, len(probe))
			pdb := make([]float64, len(probe))
			if mid := b.bisect(probe, pda, pdb, true); mid > 0 {
				mmL := b.minimax(probe[:mid])
				mmR := b.minimax(probe[mid:])
				if mmL.radius <= 0.5*mm.radius && mmR.radius <= 0.5*mm.radius {
					copy(rs, probe)
					halves(off, mid, rs, da, db, mmL, mmR, level)
					return
				}
			}
		}
		*level = append(*level, b.packLeaf(off, rs, mm))
	}
	var level []routingEntry
	rec(0, perm, da, db, nil, &level)

	// Assemble upper levels until the entries fit one root node.
	for len(level) > b.capacity {
		next := make([]routingEntry, 0, (len(level)+b.capacity-1)/b.capacity)
		for g := 0; g < len(level); g += b.capacity {
			end := min(g+b.capacity, len(level))
			next = append(next, b.makeParent(slices.Clone(level[g:end])))
		}
		level = next
	}
	out := b.out
	if len(level) == 1 && level[0].child.leaf {
		out.root = level[0].child
	} else {
		// Root routing entries have no parent object: parentDist 0.
		for i := range level {
			level[i].parentDist = 0
		}
		out.root = &node{leaf: false, routing: level}
	}
	out.deriveScanRadius()
	return out
}

// bisect partitions rs in place around two far-apart pivot rows and
// returns the split index. In relaxed mode (leaf refinement) any
// two-sided partition is accepted, and -1 reports a degenerate one;
// otherwise imbalance beyond 1:3 falls back to a median split so the
// recursion depth stays logarithmic.
func (b *loader) bisect(rs []int32, da, db []float64, relaxed bool) int {
	p0 := b.row(int(rs[0]))
	ai, amax := 0, -1.0
	for i, r := range rs {
		if d := vec.L2(p0, b.row(int(r))); d > amax {
			amax, ai = d, i
		}
	}
	pa := b.row(int(rs[ai]))
	bi, bmax := 0, -1.0
	for i, r := range rs {
		d := vec.L2(pa, b.row(int(r)))
		da[i] = d
		if d > bmax {
			bmax, bi = d, i
		}
	}
	pb := b.row(int(rs[bi]))
	for i, r := range rs {
		db[i] = vec.L2(pb, b.row(int(r)))
	}

	// Two-pointer partition: rows nearer pivot a (ties included) left.
	i, j := 0, len(rs)-1
	for i <= j {
		if da[i] <= db[i] {
			i++
			continue
		}
		rs[i], rs[j] = rs[j], rs[i]
		da[i], da[j] = da[j], da[i]
		db[i], db[j] = db[j], db[i]
		j--
	}
	if relaxed {
		if i == 0 || i == len(rs) {
			return -1
		}
		return i
	}
	if min := len(rs) / 4; i >= min && len(rs)-i >= min {
		return i
	}
	// Degenerate or imbalanced split (duplicates, outlier pivots):
	// fall back to the median of the distance to pivot a, which halves
	// the partition and bounds the recursion depth.
	sort.Sort(&rowsByDist{rs: rs, d: da, d2: db})
	return len(rs) / 2
}

// rowsByDist sorts a row partition by pivot distance, keeping the
// scratch arrays aligned.
type rowsByDist struct {
	rs []int32
	d  []float64
	d2 []float64
}

func (s *rowsByDist) Len() int           { return len(s.rs) }
func (s *rowsByDist) Less(i, j int) bool { return s.d[i] < s.d[j] }
func (s *rowsByDist) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
	s.d2[i], s.d2[j] = s.d2[j], s.d2[i]
}

// minimaxResult is one partition's pairwise distance matrix (row-major,
// aligned with the partition's ordering at computation time) and its
// minimax row: the row whose farthest partner is nearest, i.e. the
// smallest covering radius available without synthesizing a center.
type minimaxResult struct {
	dm     []float64
	best   int
	radius float64
}

// minimax computes a partition's minimaxResult (at most capacity²
// metric evaluations; symmetric halves mirrored).
func (b *loader) minimax(rs []int32) *minimaxResult {
	m := len(rs)
	dm := make([]float64, m*m)
	for i := 0; i < m; i++ {
		pi := b.row(int(rs[i]))
		for j := i + 1; j < m; j++ {
			d := vec.L2(pi, b.row(int(rs[j])))
			dm[i*m+j] = d
			dm[j*m+i] = d
		}
	}
	out := &minimaxResult{dm: dm, radius: -1}
	for i := 0; i < m; i++ {
		far := 0.0
		for j := 0; j < m; j++ {
			if d := dm[i*m+j]; d > far {
				far = d
			}
		}
		if out.radius < 0 || far < out.radius {
			out.best, out.radius = i, far
		}
	}
	return out
}

// packLeaf builds one leaf over a partition and returns its routing
// entry, routed by the partition's minimax row. mm must be aligned with
// the current ordering of rs. The leaf's points, ids and entry arrays go
// to rows [first, first+len(rs)) of the output, of which the leaf keeps
// slices.
func (b *loader) packLeaf(first int, rs []int32, mm *minimaxResult) routingEntry {
	m := len(rs)
	dm, best, bestRadius := mm.dm, mm.best, mm.radius
	out, dim := b.out, b.out.dim
	s := len(out.pivots)
	hr := newEmptyIntervals(s)
	for i, row := range rs {
		pt := b.row(int(row))
		at := first + i
		out.rowID[at] = b.src.rowID[row]
		b.parentDist[at] = dm[best*m+i]
		copy(out.flat[at*dim:(at+1)*dim], pt)
		for k, pv := range out.pivots {
			d := vec.L2(pt, pv)
			b.pivotDist[at*s+k] = d
			hr[k].extend(d)
		}
	}
	end := first + m
	leaf := &node{
		leaf:       true,
		first:      int32(first),
		parentDist: b.parentDist[first:end],
		pivotDist:  b.pivotDist[first*s : end*s],
	}
	return routingEntry{center: vec.Clone(b.row(int(rs[best]))), radius: bestRadius, child: leaf, hr: hr}
}

// makeParent wraps a run of routing entries into one parent entry: the
// minimax child center routes the group (minimizing the covering
// radius max_j d(c, c_j) + r_j), and the rings union the children's.
func (b *loader) makeParent(group []routingEntry) routingEntry {
	m := len(group)
	dm := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := vec.L2(group[i].center, group[j].center)
			dm[i*m+j] = d
			dm[j*m+i] = d
		}
	}
	best, bestRadius := 0, -1.0
	for i := 0; i < m; i++ {
		far := 0.0
		for j := 0; j < m; j++ {
			if r := dm[i*m+j] + group[j].radius; r > far {
				far = r
			}
		}
		if bestRadius < 0 || far < bestRadius {
			best, bestRadius = i, far
		}
	}
	hr := newEmptyIntervals(len(b.out.pivots))
	for i := range group {
		group[i].parentDist = dm[best*m+i]
		for k := range hr {
			hr[k].union(group[i].hr[k])
		}
	}
	return routingEntry{center: vec.Clone(group[best].center), radius: bestRadius, child: &node{leaf: false, routing: group}, hr: hr}
}

func newEmptyIntervals(s int) []Interval {
	hr := make([]Interval, s)
	for i := range hr {
		hr[i] = emptyInterval()
	}
	return hr
}
