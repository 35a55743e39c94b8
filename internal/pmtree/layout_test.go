package pmtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
// frozen rows in traversal order, or a live count that disagrees with
// the rows.
func checkLayout(tb testing.TB, tr *Tree) leafLayout {
	tb.Helper()
	s := len(tr.pivots)
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
		for i := range tr.leafIDs(n) {
			if !tr.rowLive(int(n.first) + i) {
				dead++
			}
		}
		lay.dead += dead
		if dead == m {
			lay.deadLeaves++
		}
	}
	walk(tr.root)
	live := 0
	tr.WalkIDs(func(int32) { live++ })
	if int(next) != tr.frozen || len(tr.rowID) != tr.Rows() || tr.Tail() != tr.Rows()-tr.frozen || live != tr.Len() {
		tb.Fatalf("leaves cover %d rows of %d frozen; %d ids for %d rows (%d in the tail); %d live ids for Len %d",
			next, tr.frozen, len(tr.rowID), tr.Rows(), tr.Tail(), live, tr.Len())
	}
	return lay
}

// liveRowIDs is rowID as a stream records it: -1 where the row is dead.
func liveRowIDs(tr *Tree) []int32 {
	out := slices.Clone(tr.rowID)
	for row := range out {
		if !tr.rowLive(row) {
			out[row] = -1
		}
	}
	return out
}

// requireSameTree fails unless b holds what a holds, physically: the
// same rows in the same order with the same live ids and dead rows, the
// same tail, the same leaves over them.
func requireSameTree(tb testing.TB, label string, a, b *Tree) {
	tb.Helper()
	if a.frozen != b.frozen || a.count != b.count || a.scanRadius != b.scanRadius ||
		!slices.Equal(liveRowIDs(a), liveRowIDs(b)) || !slices.Equal(a.flat, b.flat) {
		tb.Fatalf("%s: %d/%d frozen rows, %d/%d live points, switch radius %v/%v, or the rows differ",
			label, a.frozen, b.frozen, a.count, b.count, a.scanRadius, b.scanRadius)
	}
	var wa, wb bytes.Buffer
	if _, err := a.WriteTo(&wa); err != nil {
		tb.Fatal(err)
	}
	if _, err := b.WriteTo(&wb); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		tb.Fatalf("%s: the two trees serialize differently", label)
	}
}

func roundTrip(tb testing.TB, tr *Tree) *Tree {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	out, err := Read(&buf, testIDLimit)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestBulkLoadIsLeafMajor pins the layout contract of the two ways a
// tree comes into being: after a bulk load and after Read every leaf is
// one row run, the runs tile the store in traversal order with no tail
// behind them, and the two trees are the same tree (same stream) over
// the same layout.
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
			loaded := roundTrip(t, tr)
			checkLayout(t, loaded)
			requireSameTree(t, label, tr, loaded)
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
	if &first.flat[0] == &src.Flat()[0] {
		t.Fatal("the tree kept the caller's buffer")
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.routing {
			walk(n.routing[i].child)
		}
		for i, id := range first.leafIDs(n) {
			if !slices.Equal(first.leafPoint(n, i), data[id]) {
				t.Fatalf("id %d does not name the caller's row %d", id, id)
			}
		}
	}
	walk(first.root)

	second, err := BuildFromStore(src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	first.WriteTo(&a)
	second.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two trees over one store differ")
	}
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
					for _, id := range emptied.leafIDs(n) {
						gone[id] = true
					}
				}
			}
			k := 3
			firstLeaves(emptied.root, &k)
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
// on the traversal (treeOnly): the flat pass has its own suite in
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

			en := &RangeEnumerator{treeOnly: true}
			if err := en.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for _, r := range schedule {
				var want []Result
				for _, res := range refRangeSearch(tr, q, r) {
					if !seen[res.ID] {
						want = append(want, res)
					}
				}
				var got []Result
				en.Expand(r, func(id int32, d float64) {
					got = append(got, Result{ID: id, Dist: d})
					seen[id] = true
				})
				sortResults(got)
				requireSameBits(t, fmt.Sprintf("%s query %d radius %v", c.name, qi, r), got, want)
			}

			// One shot per radius after a fresh Reset: the reference's points
			// (order within an Expand is unspecified) for the reference's
			// metric evaluations.
			for _, r := range schedule {
				tr.ResetStats()
				want := refRangeSearch(tr, q, r)
				paid := tr.DistanceComputations()
				var got []Result
				if err := en.Reset(tr, q); err != nil {
					t.Fatal(err)
				}
				en.Expand(r, func(id int32, d float64) {
					got = append(got, Result{ID: id, Dist: d})
				})
				sortResults(got)
				requireSameBits(t, fmt.Sprintf("%s query %d one shot at %v", c.name, qi, r), got, want)
				if en.DistComps() != paid {
					t.Fatalf("%s query %d: one shot at %v paid %d metric evaluations, reference %d",
						c.name, qi, r, en.DistComps(), paid)
				}
			}
		}
	}
}

func requireSameBits(tb testing.TB, label string, got, want []Result) {
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
// insert lands in the tail, every delete is a mark — the churned tree's
// round trip is the same tree, physically, and answers like it, and a
// bulk load over the live points has no tail and no dead row.
func TestChurnGrowsTailAndRebuildFoldsIt(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := randData(800, 6, 5)
	tr, err := Build(data, nil, Config{NumPivots: 5, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	built := roundTrip(t, tr)
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
	if tr.Tail() != 150 || tr.Rows() != 950 || tr.Len() != 800 || tr.scanRadius != built.scanRadius {
		t.Fatalf("150 inserts and 150 deletes left %d tail rows of %d for %d points, switch radius %v (built: %v)",
			tr.Tail(), tr.Rows(), tr.Len(), tr.scanRadius, built.scanRadius)
	}
	if !slices.Equal(tr.flat[:800*6], built.flat) {
		t.Fatal("churn moved the rows the leaves cover")
	}

	reloaded := roundTrip(t, tr)
	checkLayout(t, reloaded)
	requireSameTree(t, "churned tree and its round trip", tr, reloaded)
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
		a, b := RangeEnumerator{treeOnly: true}, RangeEnumerator{treeOnly: true}
		var got, want []Result
		a.Reset(tr, q)
		a.Expand(r, func(id int32, d float64) { got = append(got, Result{id, d}) })
		b.Reset(reloaded, q)
		b.Expand(r, func(id int32, d float64) { want = append(want, Result{id, d}) })
		requireSameBits(t, "churned tree vs its round trip", got, want)
		if a.DistComps() != b.DistComps() {
			t.Fatalf("the churned tree paid %d metric evaluations, its round trip %d", a.DistComps(), b.DistComps())
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
