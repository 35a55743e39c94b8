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

// leafLayout is what checkLayout observed: how many leaves and entries
// the tree has, and how many of them are on the one-run layout.
type leafLayout struct {
	leaves, runLeaves, emptyLeaves int
	entries, runEntries            int
	leafMajor                      bool // run leaves follow each other in traversal order with no gap
}

// checkLayout walks every leaf and fails on a broken representation
// invariant: parallel arrays out of step, a run flag that disagrees
// with the rows, or a tree-wide run count that disagrees with the
// leaves.
func checkLayout(tb testing.TB, tr *Tree) leafLayout {
	tb.Helper()
	s := len(tr.pivots)
	lay := leafLayout{leafMajor: true}
	next := int32(0)
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf {
			for i := range n.routing {
				walk(n.routing[i].child)
			}
			return
		}
		m := len(n.ids)
		if len(n.rows) != m || len(n.parentDist) != m || len(n.pivotDist) != m*s {
			tb.Fatalf("leaf arrays out of step: %d ids, %d rows, %d parent distances, %d pivot distances (s=%d)",
				m, len(n.rows), len(n.parentDist), len(n.pivotDist), s)
		}
		if n.run != isRun(n.rows) {
			tb.Fatalf("leaf run flag %v disagrees with rows %v", n.run, n.rows)
		}
		lay.leaves++
		lay.entries += m
		if m == 0 {
			lay.emptyLeaves++
		}
		if n.run {
			lay.runLeaves++
			lay.runEntries += m
			if m > 0 {
				if n.rows[0] != next {
					lay.leafMajor = false
				}
				next = n.rows[0] + int32(m)
			}
		} else {
			lay.leafMajor = false
		}
	}
	walk(tr.root)
	if lay.entries != tr.Len() || lay.runEntries != tr.RunEntries() {
		tb.Fatalf("tree reports %d entries, %d in run leaves; leaves hold %d and %d",
			tr.Len(), tr.RunEntries(), lay.entries, lay.runEntries)
	}
	return lay
}

func requireLeafMajor(tb testing.TB, label string, tr *Tree) {
	tb.Helper()
	lay := checkLayout(tb, tr)
	if !lay.leafMajor || lay.runLeaves != lay.leaves || tr.RunEntries() != tr.Len() {
		tb.Fatalf("%s: layout %+v is not leaf-major", label, lay)
	}
}

func roundTrip(tb testing.TB, tr *Tree) *Tree {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestBulkLoadIsLeafMajor pins the layout contract of the two ways a
// tree comes into being whole: after a bulk load and after Read every
// leaf is one row run, the runs tile the store in traversal order, and
// the two trees are the same tree (same stream) over the same layout.
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
			requireLeafMajor(t, label+" built", tr)
			loaded := roundTrip(t, tr)
			requireLeafMajor(t, label+" loaded", loaded)
			if !slices.Equal(tr.points.Flat(), loaded.points.Flat()) {
				t.Fatalf("%s: built and loaded trees lay their rows out differently", label)
			}
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
	if first.points == src {
		t.Fatal("the tree kept the caller's store")
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.routing {
			walk(n.routing[i].child)
		}
		for i, id := range n.ids {
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
// by inserts and deletes (run leaves and broken leaves side by side),
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
				if err := churned.Delete(data[victim], int32(victim)); err != nil {
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
			lay := checkLayout(tb, churned)
			if lay.runLeaves == 0 || lay.runLeaves == lay.leaves {
				tb.Fatalf("%s: churn left %d of %d leaves as runs; the sweep needs both kinds", name, lay.runLeaves, lay.leaves)
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
					for _, id := range n.ids {
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
				} else if err := emptied.Delete(p, int32(id)); err != nil {
					tb.Fatal(err)
				}
			}
			if lay := checkLayout(tb, emptied); lay.emptyLeaves != 3 {
				tb.Fatalf("%s: %d empty leaves, want 3", name, lay.emptyLeaves)
			}
			cases = append(cases, leafScanCase{name + "/emptied", emptied, live})
		}
	}
	return cases
}

// TestLeafScanMatchesRecursiveReference pins the batched leaf scan —
// and the per-row distance path of leaves a mutation has broken — to
// the entry-at-a-time recursive traversal: over a radius schedule every
// Expand emits exactly the points the reference newly accepts at that
// radius, with bit-identical distances, a one-shot Expand emits the
// reference's points, and the enumeration pays exactly the reference's
// metric evaluations. The enumerator is held on the traversal
// (treeOnly): the flat pass has its own suite in scan_test.go. The vec
// kernels under the scan are whichever backend the build selected, so
// running the suite with and without -tags noasm covers both.
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
			tr.ResetStats()
			refRangeSearch(tr, q, schedule[len(schedule)-1])
			if want := tr.DistanceComputations(); en.DistComps() != want {
				t.Fatalf("%s query %d: enumeration paid %d metric evaluations, reference %d",
					c.name, qi, en.DistComps(), want)
			}

			// One shot: the same points (order within an Expand is
			// unspecified).
			r := schedule[2]
			want := refRangeSearch(tr, q, r)
			var got []Result
			if err := en.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			en.Expand(r, func(id int32, d float64) {
				got = append(got, Result{ID: id, Dist: d})
			})
			sortResults(got)
			requireSameBits(t, fmt.Sprintf("%s query %d one shot", c.name, qi), got, want)
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

// TestChurnBreaksAndRebuildRestoresRuns follows the run fact through a
// tree's life: mutations break it leaf by leaf (the count stays exact),
// a broken tree answers exactly like its own round trip — the same
// tree with every leaf back on one run — and a bulk load over the live
// points restores the layout.
func TestChurnBreaksAndRebuildRestoresRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := randData(800, 6, 5)
	tr, err := Build(data, nil, Config{NumPivots: 5, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := tr.RunEntries()
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
			if err := tr.Delete(data[victim], int32(victim)); err != nil {
				t.Fatal(err)
			}
			data[victim] = nil
		}
		checkLayout(t, tr)
	}
	if tr.RunEntries() >= prev {
		t.Fatalf("300 mutations left %d of %d entries in run leaves (was %d)", tr.RunEntries(), tr.Len(), prev)
	}

	reloaded := roundTrip(t, tr)
	requireLeafMajor(t, "reloaded", reloaded)
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
		requireSameBits(t, "broken leaves vs the same tree on runs", got, want)
		if a.DistComps() != b.DistComps() {
			t.Fatalf("broken leaves paid %d metric evaluations, runs %d", a.DistComps(), b.DistComps())
		}
	}

	rebuilt, err := Build(live, ids, Config{NumPivots: 5, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireLeafMajor(t, "rebuilt", rebuilt)
}
