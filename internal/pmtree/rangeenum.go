package pmtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// This file implements range enumeration, the query behind Algorithm
// 2's radius-enlarging loop: range(q, r) at r, c·r, c²·r, … over one
// tree and one query point, every round handing on only the points no
// earlier round has.
//
// "Within r" is defined on the batched kernel's squared distance: a live
// row is within r exactly when sqrt(d²) <= r for the d² that
// vec.SquaredL2ToMany computes for it (decided without the root as
// d² <= squaredCeil(r)), and the distance reported for it is that
// sqrt(d²). A round at r after a round at prev emits the live rows in
// (prev, r], each once per enumeration.
//
// An enumeration resolves its rounds in one of two ways, chosen when it
// is reset.
//
//   - The flat pass (Reset): the first round computes every row's d²,
//     one kernel call per chunk of rows, and each round walks the kept
//     array chunk by chunk; two workers may share the chunks (Resolve).
//     It reads no node, so it never bulk loads the tree. Algorithm 2's
//     first radius holds βn+k points, a quarter to a third of the data;
//     a ball that size meets nearly every leaf, and a traversal would
//     evaluate 94–101% of the points behind tests that reject nothing —
//     so every k-NN query is flat passes.
//   - The traversal (ResetTree): every round descends from the root
//     behind RangeSearch's pruning tests — hyper-rings, parent-distance
//     filter, ball test, in the float arithmetic of the recursive
//     reference the tests keep — and skips what lies within the previous
//     radius. An opened leaf is resolved as a batch (scanLeaf), its dead
//     entries skipped; the tail, which no node covers, is a flat pass
//     beside the descent. RangeSearch, the pair join's tail seeds and
//     SearchBall under Tree.ScanRadius, whose balls meet few leaves, run
//     on it.
//
// The traversal is an accelerator for the definition above, not a second
// definition. Its kernel is the flat pass's, so the distance it computes
// for a row is bit for bit the flat pass's; what it adds are filters
// that, by the triangle inequality, never reject a point within r (in
// floating point a filter bound within an ulp of a distance that equals
// r could; the flat pass has no such case and is the contract).
// TestScanMatchesTree tests the traversal against it, and
// TestLeafScanMatchesRecursiveReference the batched leaf scan against
// the entry-at-a-time reference, metric evaluations included.

// RangeEnumerator is a range enumeration over one tree (see the top of
// this file for what a round emits and how). The zero value is ready for
// Reset; all buffers (pivot distances, leaf bounds, row distances, the
// round's delta) are reused across Resets, so a pooled enumerator reaches
// a zero-allocation steady state.
//
// The tree must not be mutated AT ALL between Reset and the last
// Expand — not concurrently, and not between rounds either: a round
// emits (previous radius, r] of the rows and liveness it finds, so an
// Insert or a Delete inside a radius already passed would never reach
// the caller. A Snapshot is such a tree for as long as anyone holds it,
// which is what the index layer hands every query. Concurrent
// enumerations are fine. The query slice q is retained until the next
// Reset or Release.
type RangeEnumerator struct {
	t  *Tree
	l  *layout // the generation's rows as this enumeration reads them
	q  []float64
	qp []float64 // d(q, pivot_i); empty until the traversal's first use
	// The round in progress covers (prev, radius]; radius is all an
	// enumeration carries from one round to the next (−∞ before the first).
	prev, radius float64
	lb, d2       []float64 // scanLeaf's per-leaf bounds and squared distances

	// What Begin sets for the round's Resolve calls: the bucket scale,
	// the round as a window of squared-distance bits (takeWithin), the
	// rows the flat pass covers — the generation's (none when treeOnly),
	// then the tail's from tailFrom — and whether this round pays their
	// distances. emit is set for the duration of one Expand.
	base  float64 // the bucket scale's origin: the previous radius, or 0
	scale float64 // buckets per unit of distance
	lo2   int64   // the round's lower squared distance as bits, or -1
	span  uint64  // bits from lo2 (exclusive) to the upper one (inclusive)
	gen   []int32
	tail  []int32
	tflat []float32 // the tail rows' coordinates
	fresh bool
	emit  func(id int32, dist float64)

	// rowD2 keeps a flat pass's squared distances: every row's, the
	// generation's then the tail's — or, when treeOnly (ResetTree), the
	// tail's from tailFrom; empty until the first pass.
	rowD2    []float64
	treeOnly bool
	// tailFrom is the first row of the tail the enumeration covers. The
	// pair enumerator raises it after ResetTree to leave tail rows out.
	tailFrom int

	// qdist counts this enumeration's metric evaluations since the last
	// Reset: pivot, routing-object and leaf-point distances and every
	// tail row on a traversal, every row (dead ones included) on a flat
	// pass. Owned by one query, it stays exact when queries overlap.
	qdist int64

	shares [workers]share // the round's delta, one part per worker
}

// workers is how many goroutines may resolve one round's chunks (see
// Resolve): worker 0, the enumeration's owner, and worker 1, a helper.
const workers = 2

// flatChunk is how many rows one Resolve covers: fine enough that a
// helper arriving mid-pass finds chunks left, coarse enough that the
// kernel runs long stretches and a claim is one atomic add per 1 024
// rows.
const flatChunk = 1024

// share is one worker's part of a round's delta: the points that
// entered the radius in the chunks it resolved, each with its bucket,
// the buckets' sizes and the count. The padding keeps the two workers'
// shares, and what lies around them, on cache lines of their own.
type share struct {
	sel      []selEntry
	hits     []int32 // takeWithin's rows in the chunk
	inRadius int
	hist     [selBuckets + 1]int32
	_        [64]byte
}

// Reset rebinds the enumerator to a tree and query point for flat
// passes, restarting the enumeration at radius −∞ with all buffers
// reused.
func (e *RangeEnumerator) Reset(t *Tree, q []float64) error { return e.reset(t, q, false) }

// ResetTree is Reset for an enumeration that traverses the tree in every
// round, bulk loading it first if nothing has.
func (e *RangeEnumerator) ResetTree(t *Tree, q []float64) error { return e.reset(t, q, true) }

func (e *RangeEnumerator) reset(t *Tree, q []float64, treeOnly bool) error {
	if len(q) != t.dim {
		return fmt.Errorf("pmtree: query has dimension %d, tree expects %d", len(q), t.dim)
	}
	e.t, e.q, e.treeOnly = t, q, treeOnly
	if e.l, e.gen = t.gen.cur.Load(), nil; treeOnly {
		e.l = t.built()
	} else {
		e.gen = e.l.rowID
	}
	e.radius = math.Inf(-1)
	e.qdist = 0
	e.qp = e.qp[:0]
	e.rowD2 = e.rowD2[:0]
	e.tailFrom = t.frozen
	return nil
}

// Release drops the references the enumerator holds (tree, rows, query),
// so a pooled enumerator does not pin a tree that a Compact has since
// replaced. Buffer capacity is kept unless it has outgrown the tree
// being released (twice its rows, plus slack): a pool never frees, and
// the buffers reach the largest tree ever queried.
func (e *RangeEnumerator) Release() {
	if e.t != nil {
		bound := 2*e.t.Rows() + 1024
		if cap(e.rowD2) > bound {
			e.rowD2 = nil
		}
		for w := range e.shares {
			if cap(e.shares[w].sel) > bound {
				e.shares[w].sel = nil
			}
		}
	}
	e.t, e.l, e.gen, e.tail, e.tflat = nil, nil, nil, nil, nil
	e.q = nil
}

// Expand raises the enumeration radius to r and streams every indexed
// point within r that no earlier Expand or Nearest has taken — at most
// once per query across all calls — through emit as (id, exact
// distance). Radii are expected to be nondecreasing; a smaller r is a
// no-op (everything within it was already emitted). The callback must
// not call back into the enumerator. Emission order within one Expand is
// unspecified (and differs between the traversal and the flat pass).
func (e *RangeEnumerator) Expand(r float64, emit func(id int32, dist float64)) {
	e.emit = emit
	for c, n := 0, e.Begin(r); c < n; c++ {
		e.Resolve(c, 0)
	}
	e.emit = nil
}

// Nearest raises the enumeration radius to r like Expand and, of the
// points Expand(r) would emit, returns those admit accepts (nil admits
// all), cut to the limit that come first by (distance, id). They are
// appended to out[:0] as bare ids: buckets of ascending distance, in no
// particular order inside one. inRadius counts what Expand(r) would
// have emitted, admitted or not, and all of it is spent — a later call
// returns only what a larger radius adds. admit is called once per
// in-radius point and must not call back into the enumerator.
//
// A round is three steps, which a caller sharing it with a helper
// goroutine takes itself: Begin, Resolve for every chunk, Cut.
func (e *RangeEnumerator) Nearest(r float64, limit int, admit func(id int32) bool, out []int32) (ids []int32, inRadius int) {
	for c, n := 0, e.Begin(r); c < n; c++ {
		e.Resolve(c, 0)
	}
	return e.Cut(limit, admit, out)
}

// Begin starts a round: it raises the enumeration radius to r and
// returns how many chunks of the flat pass Resolve must take before
// Cut, none when r is not above the current radius. A traversal
// (ResetTree) also descends the tree here, into worker 0's share; its
// chunks are the tail's.
func (e *RangeEnumerator) Begin(r float64) (chunks int) {
	for w := range e.shares {
		sh := &e.shares[w]
		// Cut leaves worker 0's histogram holding offsets; worker 1's is
		// dirty only if it took a point.
		if w == 0 || sh.inRadius > 0 {
			clear(sh.hist[:])
		}
		sh.sel, sh.inRadius = sh.sel[:0], 0
	}
	if e.t.count == 0 || !(r > e.radius) {
		return 0
	}
	e.prev, e.radius = e.radius, r
	// The round's distances lie in (prev, radius], none below 0. Any
	// finite scale >= 0 keeps buckets monotone: one that overflows (a
	// range of a few subnormals) is capped; an infinite radius makes it 0.
	e.base = max(e.prev, 0)
	e.scale = max(0, min(selBuckets/(e.radius-e.base), math.MaxFloat64))
	// lo < d2 <= hi as one unsigned compare of bits (takeWithin); an
	// empty span when no squared distance qualifies.
	lo, hi := squaredCeil(e.prev), squaredCeil(e.radius)
	e.lo2, e.span = -1, 0
	if lo >= 0 {
		e.lo2 = int64(math.Float64bits(lo))
	}
	if hi >= 0 {
		e.span = uint64(int64(math.Float64bits(hi)) - e.lo2)
	}
	t := e.t
	e.tail = t.tail.rowID[e.tailFrom-t.frozen:]
	e.tflat = t.tail.flat[(e.tailFrom-t.frozen)*t.dim:]
	n := len(e.gen) + len(e.tail)
	if e.fresh = len(e.rowD2) == 0; e.fresh {
		e.rowD2 = slices.Grow(e.rowD2[:0], n)[:n]
		e.qdist += int64(n)
	}
	if e.treeOnly {
		// The s pivot distances, which a query that scans never pays.
		for _, pv := range e.l.pivots[len(e.qp):] {
			e.qp = append(e.qp, e.dist(e.q, pv))
		}
		e.expandNode(e.l.root, false, 0)
	}
	return (n + flatChunk - 1) / flatChunk
}

// Resolve takes chunk c of the round into worker w's share (w is 0 or
// 1, see workers): the first round pays the chunk's squared distances,
// in one kernel call per part of the rows it covers, and every round
// takes its live rows that lie in (prev, radius], decided on squared
// distances (squaredCeil): no root for a row left out. Two workers may
// resolve distinct chunks at once, each into its own share; nothing else
// may touch the enumerator meanwhile.
func (e *RangeEnumerator) Resolve(c, w int) {
	sh, dim := &e.shares[w], e.t.dim
	g, lo, hi := len(e.gen), c*flatChunk, min((c+1)*flatChunk, len(e.gen)+len(e.tail))
	if lo < g {
		j := min(hi, g)
		e.resolve(sh, e.rowD2[lo:j], e.gen[lo:j], e.l.flat[lo*dim:j*dim])
	}
	if hi > g {
		i := max(lo, g)
		e.resolve(sh, e.rowD2[i:hi], e.tail[i-g:hi-g], e.tflat[(i-g)*dim:(hi-g)*dim])
	}
}

func (e *RangeEnumerator) resolve(sh *share, d2s []float64, ids []int32, flat []float32) {
	if e.fresh {
		vec.SquaredL2ToMany(d2s, e.q, flat, e.t.dim)
	}
	e.takeWithin(sh, d2s, ids)
}

// Cut ends a round: of the points its shares took, it returns those
// admit accepts, cut to the limit, as Nearest describes, and inRadius,
// all of them. admit is called on the caller's goroutine only.
//
// Nothing is sorted but the bucket the cut falls in: a prefix sum over
// the bucket sizes finds it, the buckets before it are taken whole (a
// smaller bucket means a strictly smaller distance) and its own entries
// are ordered by (distance, id) to take exactly the remainder — the
// sorted delta's first limit entries, ties at the cut included. Worker
// 0's histogram becomes the round's.
func (e *RangeEnumerator) Cut(limit int, admit func(id int32) bool, out []int32) (ids []int32, inRadius int) {
	s0, s1 := &e.shares[0], &e.shares[1]
	inRadius = s0.inRadius + s1.inRadius
	hist := &s0.hist
	switch {
	case admit != nil:
		clear(hist[:])
		for i := range e.shares {
			sh, w := &e.shares[i], 0
			for _, c := range sh.sel {
				if admit(c.id) {
					sh.sel[w] = c
					w++
					hist[c.bucket]++
				}
			}
			sh.sel = sh.sel[:w]
		}
	case s1.inRadius > 0:
		// Over a slice: a range over the array would copy its 4 KB into
		// the frame, and each per-shard goroutine would grow its stack.
		for b, n := range s1.hist[:] {
			hist[b] += n
		}
	}
	total := len(s0.sel) + len(s1.sel)
	take := max(0, min(limit, total))
	// Bucket sizes to offsets; cut is the bucket holding the first entry
	// left out and cutAt its offset (no bucket when everything is taken).
	cut, cutAt, next := int32(len(hist)), take, int32(0)
	for b := range hist {
		n := hist[b]
		if int(next) <= take && take < int(next+n) {
			cut, cutAt = int32(b), int(next)
		}
		hist[b] = next
		next += n
	}
	out = slices.Grow(out[:0], total)[:total]
	w0 := place(s0.sel, hist, cut, out)
	w1 := place(s1.sel, hist, cut, out)
	if take > cutAt {
		s0.sel = append(s0.sel[:w0], s1.sel[:w1]...)
		slices.SortFunc(s0.sel, func(a, b selEntry) int {
			if c := cmp.Compare(a.dist, b.dist); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		for i, c := range s0.sel[:take-cutAt] {
			out[cutAt+i] = c.id
		}
	}
	return out[:take], inRadius
}

// place writes the ids of sel at their buckets' offsets in out, advancing
// the offsets, and moves the entries of bucket cut to the front of sel,
// returning how many there are.
func place(sel []selEntry, offset *[selBuckets + 1]int32, cut int32, out []int32) int {
	w := 0
	for _, c := range sel {
		at := &offset[c.bucket]
		out[*at] = c.id
		*at++
		if c.bucket == cut {
			sel[w] = c
			w++
		}
	}
	return w
}

// selBuckets is how many distance classes a round's delta is split
// into: a k-NN round admits a few thousand points, a handful per bucket
// to sort at the cut, and the counters stay inside the L1 cache.
const selBuckets = 1024

// selEntry is one point of the round's delta.
type selEntry struct {
	dist   float64
	id     int32
	bucket int32
}

// bucketOf maps a distance of the round to its bucket: linear between
// the round's two radii, nondecreasing in dist, and total — the first
// bucket takes anything below the range, the last its top and what the
// scale cannot place (an infinite distance under a zero scale, a NaN).
func bucketOf(dist, base, scale float64) int32 {
	f := (dist - base) * scale
	if f < 1 {
		return 0
	}
	if f < selBuckets {
		return int32(f)
	}
	return selBuckets
}

// take passes on or records in sh one point found inside the radius.
func (e *RangeEnumerator) take(sh *share, id int32, dist float64) {
	if e.emit != nil {
		e.emit(id, dist)
		return
	}
	sh.inRadius++
	b := bucketOf(dist, e.base, e.scale)
	sh.hist[b]++
	sh.sel = append(sh.sel, selEntry{dist: dist, id: id, bucket: b})
}

// takeWithin takes into sh the live rows, of ids and their squared
// distances d2s, that lie in the round. A squared distance is never
// negative and non-negative floats order as their bits, so lo < d2 <= hi
// is one unsigned compare: the rows in the round are gathered without a
// branch per row — rows in no spatial order (as handed over, before a
// bulk load) would mispredict it — and then taken.
func (e *RangeEnumerator) takeWithin(sh *share, d2s []float64, ids []int32) {
	lb, span := e.lo2, e.span
	if span == 0 {
		return
	}
	hits, n := slices.Grow(sh.hits[:0], len(d2s))[:len(d2s)], 0
	for i, d2 := range d2s {
		hits[n] = int32(i)
		if uint64(int64(math.Float64bits(d2))-lb-1) < span {
			n++
		}
	}
	sh.hits = hits
	// Tree.liveID by hand, for the few thousand rows a k-NN round finds in
	// radius: 0 (live) wraps above every epoch. A tree without a dead row
	// — every read-only workload — skips the load, a cache miss per row.
	del, epoch, allLive := e.t.del, e.t.epoch, e.t.count == e.t.Rows()
	for _, i := range hits[:n] {
		if id := ids[i]; id >= 0 && (allLive || del[id].Load()-1 >= epoch) {
			e.take(sh, id, math.Sqrt(d2s[i]))
		}
	}
}

// squaredCeil returns the largest x with sqrt(x) <= r, or -1 when no
// squared distance qualifies (r negative or NaN). The square root is
// correctly rounded, hence monotone, so d2 <= squaredCeil(r) exactly
// when sqrt(d2) <= r; r*r is within a step or two of the answer.
func squaredCeil(r float64) float64 {
	if !(r >= 0) {
		return -1
	}
	x := r * r
	for math.Sqrt(x) > r {
		x = math.Nextafter(x, 0)
	}
	for {
		up := math.Nextafter(x, math.Inf(1))
		if up == x || math.Sqrt(up) > r {
			return x
		}
		x = up
	}
}

// expandNode opens a node whose predicates passed at the round's
// radius and descends its qualifying children depth-first, like
// RangeSearch. qpd is d(q, the node's routing object), meaningless when
// hasParent is false (the root).
func (e *RangeEnumerator) expandNode(n *node, hasParent bool, qpd float64) {
	if n.leaf {
		e.scanLeaf(n, hasParent, qpd)
		return
	}
	radius := e.radius
	for i := range n.routing {
		re := &n.routing[i]
		// The reference predicates, verbatim: hyper-rings (Eq. 5's ∧
		// terms) and the M-tree parent-distance filter before the ball
		// test pays the routing-object distance.
		if ringPrune(e.qp, re.hr, radius) ||
			(hasParent && math.Abs(qpd-re.parentDist) > radius+re.radius) {
			continue
		}
		d := e.dist(e.q, re.center)
		if d > radius+re.radius {
			continue
		}
		e.expandNode(re.child, true, d)
	}
}

// scanLeaf opens a leaf as a batch, in two passes over its entry arrays.
//
//  1. Every entry's filter lower bound: |d(q,par) − PD| from the parent
//     distances, then the pivot terms |d(q,p_i) − PD_i| folded in by
//     one kernel call over the leaf's pivot-distance rows. The bound is
//     the maximum of the reference's filter quantities, so "bound > r"
//     is the reference's skip decision.
//  2. The surviving entries' exact distances. The leaf's points are
//     one run of layout rows, so each maximal stretch of live survivors
//     is one batched-kernel call over contiguous memory, emitted in
//     entry order; the kernel is bit-identical to the single-pair one,
//     and only survivors are evaluated, so DistComps is what the
//     reference's per-entry scan counts.
//
// A dead entry is not evaluated.
func (e *RangeEnumerator) scanLeaf(n *node, hasParent bool, qpd float64) {
	m := n.size()
	if m == 0 {
		return
	}
	ids := e.l.leafIDs(n)
	if cap(e.lb) < m {
		e.lb = make([]float64, m)
		e.d2 = make([]float64, m)
	}
	lb, d2 := e.lb[:m], e.d2[:m]
	prev, radius := e.prev, e.radius

	if hasParent {
		for i, pd := range n.parentDist {
			lb[i] = math.Abs(qpd - pd)
		}
	} else {
		clear(lb)
	}
	if s := len(e.qp); s > 0 {
		vec.MaxAbsDiffToMany(lb, e.qp, n.pivotDist, s)
	}

	dim := e.t.dim
	first := int(n.first)
	flat := e.l.flat[first*dim : (first+m)*dim]
	evaluated := 0
	for i := 0; i < m; {
		if lb[i] > radius || !e.t.liveID(ids[i]) {
			i++
			continue
		}
		j := i + 1
		for j < m && !(lb[j] > radius || !e.t.liveID(ids[j])) {
			j++
		}
		vec.SquaredL2ToMany(d2[i:j], e.q, flat[i*dim:j*dim], dim)
		evaluated += j - i
		// Within prev when a later round descends again.
		for ; i < j; i++ {
			if d := math.Sqrt(d2[i]); d <= radius && d > prev {
				e.take(&e.shares[0], ids[i], d)
			}
		}
	}
	e.qdist += int64(evaluated)
}

// dist evaluates the metric, counting it (see qdist).
func (e *RangeEnumerator) dist(a, b []float64) float64 {
	e.qdist++
	return vec.L2(a, b)
}

// DistComps returns the number of metric evaluations this enumeration
// has paid since its Reset (see qdist; a flat-pass enumeration reads
// exactly Tree.Rows however many rounds it runs): the one count of a
// range query's work, Table 2's computation cost included. The count is
// owned by the enumeration — it never includes work from other queries,
// however many run concurrently.
func (e *RangeEnumerator) DistComps() int64 { return e.qdist }
