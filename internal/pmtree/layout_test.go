package pmtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/store"
)

// leafLayout is what checkLayout observed: how many leaves the tree
// has, how many of them hold no live entry, and how many of the leaves'
// entries are dead.
type leafLayout struct {
	leaves, deadLeaves int
	entries, dead      int
}

// checkLayout walks every leaf and fails on a broken representation
// invariant: entry arrays out of step, leaves that do not tile the
// generation's rows in traversal order, or a live count that disagrees
// with the rows.
func checkLayout(tb testing.TB, tr *Tree) leafLayout {
	tb.Helper()
	l := tr.built()
	s := len(l.pivots)
	var lay leafLayout
	next := int32(0)
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf {
			for i := range n.routing {
				walk(n.routing[i].child)
			}
			return
		}
		m := n.size()
		if len(n.pivotDist) != m*s {
			tb.Fatalf("leaf arrays out of step: %d parent distances, %d pivot distances (s=%d)", m, len(n.pivotDist), s)
		}
		if n.first != next {
			tb.Fatalf("leaf starts at row %d, the leaf before it ended at %d", n.first, next)
		}
		next += int32(m)
		lay.leaves++
		lay.entries += m
		dead := 0
		for _, id := range l.leafIDs(n) {
			if !tr.liveID(id) {
				dead++
			}
		}
		lay.dead += dead
		if dead == m {
			lay.deadLeaves++
		}
	}
	walk(l.root)
	live := liveCount(tr)
	if int(next) != tr.frozen || len(l.rowID) != tr.frozen || len(l.flat) != tr.frozen*tr.dim ||
		len(tr.tail.rowID) != tr.Tail() || len(tr.tail.flat) != tr.Tail()*tr.dim || live != tr.Len() {
		tb.Fatalf("leaves cover %d rows of %d frozen; %d ids and %d values for them, %d ids and %d values for %d tail rows; %d live ids for Len %d",
			next, tr.frozen, len(l.rowID), len(l.flat), len(tr.tail.rowID), len(tr.tail.flat), tr.Tail(), live, tr.Len())
	}
	return lay
}

// liveCount counts the live ids of the generation's rows and the tail's.
func liveCount(tr *Tree) int {
	live := 0
	for _, id := range slices.Concat(tr.gen.cur.Load().rowID, tr.tail.rowID) {
		if tr.liveID(id) {
			live++
		}
	}
	return live
}

// fingerprint is everything a tree is, bulk loading it if need be, as
// bytes: its shape and switch radius, its pivots, then its nodes in
// traversal order — a leaf's ids (-1 where dead), rows, parent and pivot
// distances, a routing entry's center, radius, parent distance and rings
// — and its tail's ids and rows. Two trees with one fingerprint answer
// every query alike, for the same metric evaluations.
func fingerprint(tr *Tree) []byte {
	l := tr.built()
	var b bytes.Buffer
	put := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	row := func(id int32, p []float64) {
		if !tr.liveID(id) {
			id = -1
		}
		put(id)
		put(p)
	}
	put([]int64{int64(tr.dim), int64(tr.gen.cfg.Capacity), int64(tr.frozen), int64(tr.count), int64(len(l.pivots))})
	put(l.scanRadius)
	for _, p := range l.pivots {
		put(p)
	}
	var walk func(n *node)
	walk = func(n *node) {
		put([]int64{int64(n.size()), int64(n.first)})
		if n.leaf {
			for i, id := range l.leafIDs(n) {
				row(id, wide(l.leafPoint(n, i)))
				put(n.parentDist[i])
				put(n.pivotDists(i, len(l.pivots)))
			}
			return
		}
		for i := range n.routing {
			e := &n.routing[i]
			put(e.center)
			put([]float64{e.radius, e.parentDist})
			put(e.hr)
			walk(e.child)
		}
	}
	walk(l.root)
	put(int64(tr.Tail()))
	for i, id := range tr.tail.rowID {
		row(id, wide(tr.tail.row(i)))
	}
	return b.Bytes()
}

// requireSameTree fails unless b is the tree a is (see fingerprint).
func requireSameTree(tb testing.TB, label string, a, b *Tree) {
	tb.Helper()
	if !bytes.Equal(fingerprint(a), fingerprint(b)) {
		tb.Fatalf("%s: %d/%d frozen rows, %d/%d live points, switch radius %v/%v, or the nodes differ",
			label, a.frozen, b.frozen, a.count, b.count, a.ScanRadius(), b.ScanRadius())
	}
}

// regrow returns the tree an index snapshot rebuilds of tr (core.Load):
// a deferred tree over the rows tr's generation was handed, gen in that
// order with their indexes for ids (Build's nil ids), followed by tr's
// tail, a dead row's id -1 — the snapshot keeps no id for it.
func regrow(tb testing.TB, tr *Tree, gen [][]float64) *Tree {
	tb.Helper()
	ids := make([]int32, len(gen))
	for i := range ids {
		ids[i] = int32(i)
	}
	ids = append(ids, tr.tail.rowID...)
	for row, id := range ids {
		if !tr.liveID(id) {
			ids[row] = -1
		}
	}
	s, err := store.FromFlat(append(slices.Concat(gen...), wide(tr.tail.flat)...), tr.dim)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := NewDeferred(s, ids, len(gen), tr.gen.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestBulkLoadIsLeafMajor pins the layout contract of the two ways a
// tree comes into being, an eager build and a deferred one's first use:
// every leaf is one row run, the runs tile the rows in traversal order
// with no tail behind them, and the two trees are the same tree over the
// same layout.
func TestBulkLoadIsLeafMajor(t *testing.T) {
	for _, cfg := range []Config{
		{NumPivots: 5, Capacity: 16, PivotSeed: 3},
		{NumPivots: 0, Capacity: 4},
		{NumPivots: 2, Capacity: 7, PivotSeed: 9},
	} {
		for _, n := range []int{1, 3, 40, 1500} {
			data := randData(n, 6, int64(n))
			tr, err := Build(data, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d cfg=%+v", n, cfg)
			if lay := checkLayout(t, tr); tr.Tail() != 0 || lay.dead != 0 || lay.entries != n {
				t.Fatalf("%s: built tree has layout %+v and %d tail rows", label, lay, tr.Tail())
			}
			deferred := regrow(t, tr, data)
			checkLayout(t, deferred)
			requireSameTree(t, label, tr, deferred)
		}
	}
}

// TestBuildFromStoreLeavesSourceAlone is the contract several callers
// share one projected store under: the store is neither reordered nor
// retained, a nil ids means "id = the caller's row", and a second tree
// over the same store is the same tree.
func TestBuildFromStoreLeavesSourceAlone(t *testing.T) {
	data := randData(700, 5, 41)
	src, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(src.Flat())
	cfg := Config{NumPivots: 5, PivotSeed: 8}
	first, err := BuildFromStore(src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(src.Flat(), before) {
		t.Fatal("BuildFromStore reordered the caller's store")
	}
	l := first.built()
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.routing {
			walk(n.routing[i].child)
		}
		for i, id := range l.leafIDs(n) {
			if !slices.Equal(wide(l.leafPoint(n, i)), data[id]) {
				t.Fatalf("id %d does not name the caller's row %d", id, id)
			}
		}
	}
	walk(l.root)

	second, err := BuildFromStore(src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTree(t, "two trees over one store", first, second)

	// An insert goes to a buffer of the tree's own, never to the spare
	// capacity behind the caller's rows, which the caller's next Append
	// fills.
	grown, err := store.New(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range data {
		if _, err := grown.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if f := grown.Flat(); cap(f) == len(f) {
		t.Fatal("the grown store has no spare capacity to test against")
	}
	tr, err := BuildFromStore(grown, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := randData(1, 5, 43)[0]
	if err := tr.Insert(p, 700); err != nil {
		t.Fatal(err)
	}
	if _, err := grown.Append(make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wide(tr.tail.row(0)), p) {
		t.Fatal("the caller's Append overwrote the tree's tail")
	}
}

// TestDeferredTreeLoadsOnce: a NewDeferred tree is the caller's rows,
// rounded, in the caller's order until first use; the first read of its
// structure, through any snapshot, loads it — once — into the tree
// BuildFromStore makes over the same store, and lets go of the rows it
// was handed.
func TestDeferredTreeLoadsOnce(t *testing.T) {
	src, err := store.FromRows(randData(700, 5, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumPivots: 5, PivotSeed: 8}
	eager, err := BuildFromStore(src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := NewDeferred(src, nil, src.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := deferred.Snapshot()
	handed := deferred.gen.cur.Load().flat
	if !slices.Equal(wide(handed), src.Flat()) || deferred.BulkLoads() != 0 {
		t.Fatal("a deferred tree reordered its rows, or was loaded, before first use")
	}
	snap.NumPivots()
	deferred.Snapshot().NumPivots()
	if deferred.BulkLoads() != 1 || snap.BulkLoads() != 1 || eager.BulkLoads() != 1 {
		t.Fatalf("bulk loads: %d by the tree, %d by its snapshot, %d by an eager build; want 1 each",
			deferred.BulkLoads(), snap.BulkLoads(), eager.BulkLoads())
	}
	if &deferred.built().flat[0] == &handed[0] {
		t.Fatal("the loaded tree kept the rows it was handed")
	}
	requireSameTree(t, "deferred against eager", eager, deferred)
}

// leafScanCase is one tree of the batched-scan equivalence sweep.
type leafScanCase struct {
	name string
	tr   *Tree
	live [][]float64
}

// leafScanCases builds the sweep: pivot counts 0 and 5 by capacities 4
// and 16, each as built, with every point stored three times, churned
// by inserts and deletes (a tail, dead rows in it and in the leaves),
// and with whole leaves emptied by Delete.
func leafScanCases(tb testing.TB) []leafScanCase {
	tb.Helper()
	var cases []leafScanCase
	for _, s := range []int{0, 5} {
		for _, capacity := range []int{4, 16} {
			cfg := Config{NumPivots: s, Capacity: capacity, PivotSeed: int64(10*s + capacity)}
			name := fmt.Sprintf("s=%d/cap=%d", s, capacity)
			rng := rand.New(rand.NewSource(int64(100*s + capacity)))
			base := randData(300, 7, int64(s+capacity))
			build := func(data [][]float64) *Tree {
				tr, err := Build(data, nil, cfg)
				if err != nil {
					tb.Fatal(err)
				}
				return tr
			}

			cases = append(cases, leafScanCase{name + "/built", build(base), base})

			var dup [][]float64
			for _, p := range base[:100] {
				dup = append(dup, p, p, p)
			}
			cases = append(cases, leafScanCase{name + "/duplicates", build(dup), dup})

			churned := build(base)
			data := slices.Clone(base)
			for i := 0; i < 60; i++ {
				p := randData(1, 7, rng.Int63())[0]
				if err := churned.Insert(p, int32(len(data))); err != nil {
					tb.Fatal(err)
				}
				data = append(data, p)
				victim := rng.Intn(len(data))
				if data[victim] == nil {
					continue
				}
				if err := churned.Delete(int32(victim)); err != nil {
					tb.Fatal(err)
				}
				data[victim] = nil
			}
			var live [][]float64
			for _, p := range data {
				if p != nil {
					live = append(live, p)
				}
			}
			if lay := checkLayout(tb, churned); lay.dead == 0 || churned.Tail() != 60 || churned.Rows()-churned.Len() == lay.dead {
				tb.Fatalf("%s: churn left %d dead leaf entries, %d tail rows and %d dead rows overall; the sweep needs dead rows in both parts",
					name, lay.dead, churned.Tail(), churned.Rows()-churned.Len())
			}
			cases = append(cases, leafScanCase{name + "/churned", churned, live})

			emptied := build(base)
			gone := map[int32]bool{}
			var firstLeaves func(n *node, k *int)
			firstLeaves = func(n *node, k *int) {
				for i := range n.routing {
					firstLeaves(n.routing[i].child, k)
				}
				if n.leaf && *k > 0 {
					*k--
					for _, id := range emptied.built().leafIDs(n) {
						gone[id] = true
					}
				}
			}
			k := 3
			firstLeaves(emptied.built().root, &k)
			live = nil
			for id, p := range base {
				if !gone[int32(id)] {
					live = append(live, p)
				} else if err := emptied.Delete(int32(id)); err != nil {
					tb.Fatal(err)
				}
			}
			if lay := checkLayout(tb, emptied); lay.deadLeaves != 3 {
				tb.Fatalf("%s: %d leaves with every entry dead, want 3", name, lay.deadLeaves)
			}
			cases = append(cases, leafScanCase{name + "/emptied", emptied, live})
		}
	}
	return cases
}

// TestLeafScanMatchesRecursiveReference pins the batched leaf scan —
// dead entries skipped, the tail resolved in one kernel call — to the
// entry-at-a-time recursive traversal: over a radius schedule every
// Expand emits exactly the points the reference newly accepts at that
// radius, with bit-identical distances, and a one-shot Expand after a
// fresh Reset emits the reference's points for exactly the reference's
// metric evaluations, at every radius of the schedule (a later round of
// one enumeration descends again and pays again). The enumerator is held
// on the traversal (ResetTree): the flat pass has its own suite in
// scan_test.go. The vec kernels under the scan are whichever backend the
// build selected, so running the suite with and without -tags noasm
// covers both.
func TestLeafScanMatchesRecursiveReference(t *testing.T) {
	for _, c := range leafScanCases(t) {
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		tr := c.tr
		for qi := 0; qi < 6; qi++ {
			q := c.live[rng.Intn(len(c.live))]
			if qi%2 == 1 {
				q = randData(1, tr.Dim(), rng.Int63())[0]
			}
			schedule := []float64{0, 8 + 4*rng.Float64(), 20 + 5*rng.Float64(), 32, 45, 1e6}

			en := &RangeEnumerator{}
			if err := en.ResetTree(tr, q); err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for _, r := range schedule {
				var want []metrics.Neighbor
				for _, res := range refRangeSearch(tr, q, r) {
					if !seen[res.ID] {
						want = append(want, res)
					}
				}
				var got []metrics.Neighbor
				en.Expand(r, func(id int32, d float64) {
					got = append(got, metrics.Neighbor{ID: id, Dist: d})
					seen[id] = true
				})
				slices.SortFunc(got, metrics.CompareNeighbors)
				requireSameBits(t, fmt.Sprintf("%s query %d radius %v", c.name, qi, r), got, want)
			}

			// One shot per radius after a fresh Reset: the reference's points
			// (order within an Expand is unspecified) for the reference's
			// metric evaluations.
			for _, r := range schedule {
				want, paid := refRangeSearch(tr, q, r), refRangeCost(tr, q, r)
				var got []metrics.Neighbor
				if err := en.ResetTree(tr, q); err != nil {
					t.Fatal(err)
				}
				en.Expand(r, func(id int32, d float64) {
					got = append(got, metrics.Neighbor{ID: id, Dist: d})
				})
				slices.SortFunc(got, metrics.CompareNeighbors)
				requireSameBits(t, fmt.Sprintf("%s query %d one shot at %v", c.name, qi, r), got, want)
				if en.DistComps() != paid {
					t.Fatalf("%s query %d: one shot at %v paid %d metric evaluations, reference %d",
						c.name, qi, r, en.DistComps(), paid)
				}
			}
		}
	}
}

func requireSameBits(tb testing.TB, label string, got, want []metrics.Neighbor) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			tb.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestChurnGrowsTailAndRebuildFoldsIt follows a tree through churn: no
// mutation touches a node — leaves keep tiling the frozen rows, every
// insert lands in the tail, every delete is a mark — the tree regrown
// from its rows as a snapshot keeps them is the same tree, physically,
// and answers like it, and a bulk load over the live points has no tail
// and no dead row.
func TestChurnGrowsTailAndRebuildFoldsIt(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := randData(800, 6, 5)
	tr, err := Build(data, nil, Config{NumPivots: 5, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := slices.Clone(data)
	builtRows, builtRadius := slices.Clone(tr.built().flat), tr.ScanRadius()
	for step := 0; step < 300; step++ {
		if step%2 == 0 {
			p := randData(1, 6, rng.Int63())[0]
			if err := tr.Insert(p, int32(len(data))); err != nil {
				t.Fatal(err)
			}
			data = append(data, p)
		} else {
			victim := rng.Intn(len(data))
			for data[victim] == nil {
				victim = rng.Intn(len(data))
			}
			if err := tr.Delete(int32(victim)); err != nil {
				t.Fatal(err)
			}
			data[victim] = nil
		}
		checkLayout(t, tr)
	}
	if tr.Tail() != 150 || tr.Rows() != 950 || tr.Len() != 800 || tr.ScanRadius() != builtRadius {
		t.Fatalf("150 inserts and 150 deletes left %d tail rows of %d for %d points, switch radius %v (built: %v)",
			tr.Tail(), tr.Rows(), tr.Len(), tr.ScanRadius(), builtRadius)
	}
	if !slices.Equal(tr.built().flat, builtRows) {
		t.Fatal("churn moved the rows the leaves cover")
	}

	reloaded := regrow(t, tr, base)
	checkLayout(t, reloaded)
	requireSameTree(t, "churned tree and its regrown one", tr, reloaded)
	var ids []int32
	var live [][]float64
	for id, p := range data {
		if p != nil {
			ids = append(ids, int32(id))
			live = append(live, p)
		}
	}
	for qi := 0; qi < 20; qi++ {
		q := live[rng.Intn(len(live))]
		r := 10 + rng.Float64()*25
		var a, b RangeEnumerator
		var got, want []metrics.Neighbor
		a.ResetTree(tr, q)
		a.Expand(r, func(id int32, d float64) { got = append(got, metrics.Neighbor{ID: id, Dist: d}) })
		b.ResetTree(reloaded, q)
		b.Expand(r, func(id int32, d float64) { want = append(want, metrics.Neighbor{ID: id, Dist: d}) })
		requireSameBits(t, "churned tree vs its regrown one", got, want)
		if a.DistComps() != b.DistComps() {
			t.Fatalf("the churned tree paid %d metric evaluations, its regrown one %d", a.DistComps(), b.DistComps())
		}
	}

	rebuilt, err := Build(live, ids, Config{NumPivots: 5, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lay := checkLayout(t, rebuilt); rebuilt.Tail() != 0 || lay.dead != 0 || rebuilt.Rows() != 800 {
		t.Fatalf("rebuilt tree has layout %+v, %d rows, %d in the tail", lay, rebuilt.Rows(), rebuilt.Tail())
	}
}
