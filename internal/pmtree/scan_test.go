package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/store"
)

// scanCase is one tree of the scan-against-traversal sweep with the ids
// it must answer from.
type scanCase struct {
	name string
	tr   *Tree
	live map[int32][]float64
}

// scanCases builds the sweep: pivot counts 0 and 5 by capacities 4 and
// 16, each as bulk loaded, worn by 300 interleaved inserts and deletes
// (dead rows under the leaves and in the tail), worn alike while still
// deferred (no structure yet: the rows in the order handed over), grown
// from New by Insert alone (all tail), and holding a few points many
// times over.
func scanCases(tb testing.TB) []scanCase {
	tb.Helper()
	var cases []scanCase
	for _, s := range []int{0, 5} {
		for _, capacity := range []int{4, 16} {
			cfg := Config{NumPivots: s, Capacity: capacity, PivotSeed: int64(7*s + capacity)}
			name := fmt.Sprintf("s=%d/cap=%d", s, capacity)
			rng := rand.New(rand.NewSource(int64(31*s + capacity)))
			base := randData(400, 7, int64(3*s+capacity))
			liveOf := func(data [][]float64) map[int32][]float64 {
				live := map[int32][]float64{}
				for id, p := range data {
					if p != nil {
						live[int32(id)] = p
					}
				}
				return live
			}
			build := func(data [][]float64) *Tree {
				tr, err := Build(data, nil, cfg)
				if err != nil {
					tb.Fatal(err)
				}
				return tr
			}
			wear := func(worn *Tree) map[int32][]float64 {
				data := slices.Clone(base)
				for step := 0; step < 300; step++ {
					if step%3 == 1 {
						p := randData(1, 7, rng.Int63())[0]
						if err := worn.Insert(p, int32(len(data))); err != nil {
							tb.Fatal(err)
						}
						data = append(data, p)
						continue
					}
					victim := rng.Intn(len(data))
					for data[victim] == nil {
						victim = rng.Intn(len(data))
					}
					if err := worn.Delete(int32(victim)); err != nil {
						tb.Fatal(err)
					}
					data[victim] = nil
				}
				if worn.Tail() != 100 || worn.Rows()-worn.Len() != 200 {
					tb.Fatalf("%s: churn left %d rows (%d in the tail) for %d points; want 100 tail rows and 200 dead ones",
						name, worn.Rows(), worn.Tail(), worn.Len())
				}
				return liveOf(data)
			}

			cases = append(cases, scanCase{name + "/built", build(base), liveOf(base)})
			worn := build(base)
			cases = append(cases, scanCase{name + "/worn", worn, wear(worn)})
			src, err := store.FromRows(base)
			if err != nil {
				tb.Fatal(err)
			}
			deferred, err := NewDeferred(src, nil, src.Len(), cfg)
			if err != nil {
				tb.Fatal(err)
			}
			cases = append(cases, scanCase{name + "/deferred", deferred, wear(deferred)})
			if deferred.gen.cur.Load().root != nil {
				tb.Fatalf("%s: churn bulk loaded a deferred tree", name)
			}

			grown, err := New(7, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			for id, p := range base {
				if err := grown.Insert(p, int32(id)); err != nil {
					tb.Fatal(err)
				}
			}
			// No node covers a point, so there is no leaf radius to measure
			// and every radius scans, as for the duplicates below.
			if grown.ScanRadius() != 0 || grown.Tail() != len(base) {
				tb.Fatalf("%s: a tree grown by Insert alone has switch radius %v and %d tail rows",
					name, grown.ScanRadius(), grown.Tail())
			}
			cases = append(cases, scanCase{name + "/grown", grown, liveOf(base)})

			// Twelve distinct points forty times each: most leaves cover one
			// repeated point, the median leaf radius and with it the switch
			// radius are 0, and every radius — 0 included — scans.
			var dup [][]float64
			for _, p := range base[:12] {
				for i := 0; i < 40; i++ {
					dup = append(dup, p)
				}
			}
			dups := build(dup)
			if dups.ScanRadius() != 0 {
				tb.Fatalf("%s: duplicate-heavy tree has switch radius %v, want 0", name, dups.ScanRadius())
			}
			cases = append(cases, scanCase{name + "/duplicates", dups, liveOf(dup)})
		}
	}
	return cases
}

// TestScanMatchesTree is the property the switch rests on: whatever the
// radius schedule, every Expand of a flat-pass enumeration emits the set
// of points a traversal emits at that radius — the same ids with
// bit-identical distances, no dead row, nothing twice — and pays exactly
// the tree's rows, once, however small its radii. On the deferred tree
// the first flat pass reads the rows in the order they were handed over
// while the traversal beside it bulk loads the tree.
func TestScanMatchesTree(t *testing.T) {
	for _, c := range scanCases(t) {
		tr := c.tr
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		ids := make([]int32, 0, len(c.live))
		for id := range c.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for qi := 0; qi < 8; qi++ {
			q := c.live[ids[rng.Intn(len(ids))]]
			if qi%2 == 1 {
				q = randData(1, tr.Dim(), rng.Int63())[0]
			}
			var sw, ref RangeEnumerator
			if err := sw.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			if err := ref.ResetTree(tr, q); err != nil {
				t.Fatal(err)
			}
			// In units of the switch radius: rounds below it, one on it,
			// rounds above. A switch radius of 0 leaves no "below".
			schedule := []float64{0, 5, 20, 1e6}
			if sr := tr.ScanRadius(); sr > 0 {
				schedule = []float64{0, 0.4 * sr, (0.6 + 0.3*rng.Float64()) * sr, sr, 1.5 * sr, 4 * sr, 20 * sr, 1e6}
				schedule = schedule[[]int{0, 1, 4, 2}[qi%4]:]
			}
			seen := map[int32]bool{}
			for _, r := range schedule {
				label := fmt.Sprintf("%s query %d radius %v", c.name, qi, r)
				var got, want []metrics.Neighbor
				sw.Expand(r, func(id int32, d float64) {
					if _, ok := c.live[id]; !ok || seen[id] {
						t.Fatalf("%s: emitted id %d (live %v, seen %v)", label, id, ok, seen[id])
					}
					seen[id] = true
					got = append(got, metrics.Neighbor{ID: id, Dist: d})
				})
				ref.Expand(r, func(id int32, d float64) { want = append(want, metrics.Neighbor{ID: id, Dist: d}) })
				slices.SortFunc(got, metrics.CompareNeighbors)
				slices.SortFunc(want, metrics.CompareNeighbors)
				requireSameBits(t, label, got, want)
				if sw.DistComps() != int64(tr.Rows()) {
					t.Fatalf("%s: the flat pass paid %d evaluations over %d rows", label, sw.DistComps(), tr.Rows())
				}
			}
			if len(seen) != len(c.live) {
				t.Fatalf("%s query %d: %d of %d points emitted by radius 1e6", c.name, qi, len(seen), len(c.live))
			}
		}
	}
}

// TestEnumerationTraversesAtMostOnce pins that an enumeration keeps one
// way for all its rounds. A flat-pass enumeration — every k-NN query —
// never traverses: under the switch radius or not, its first round pays
// exactly the tree's rows and a second pays nothing more. A ResetTree
// enumeration descends once per round: each round pays what a fresh
// reference traversal at its radius pays — less, after the first, the
// pivot distances and the tail, which it keeps — and emits exactly what
// the reference finds in (first radius, second].
func TestEnumerationTraversesAtMostOnce(t *testing.T) {
	for _, c := range scanCases(t) {
		tr := c.tr
		if tr.ScanRadius() == 0 {
			continue // no radius under the switch
		}
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		for qi := 0; qi < 6; qi++ {
			q := randData(1, tr.Dim(), rng.Int63())[0]
			r1 := (0.3 + 0.4*rng.Float64()) * tr.ScanRadius()
			// Still under the switch, on it, and far past it.
			r2 := []float64{math.Nextafter(r1, 2*r1), tr.ScanRadius(), 6 * tr.ScanRadius()}[qi%3]
			label := fmt.Sprintf("%s query %d radii %v, %v", c.name, qi, r1, r2)
			var want []metrics.Neighbor
			for _, res := range refRangeSearch(tr, q, r2) {
				if res.Dist > r1 {
					want = append(want, res)
				}
			}
			paid1, paid2 := refRangeCost(tr, q, r1), refRangeCost(tr, q, r2)

			for _, treeOnly := range []bool{false, true} {
				var e RangeEnumerator
				reset, after1, after2 := e.Reset, int64(tr.Rows()), int64(tr.Rows())
				if treeOnly {
					reset, after1, after2 = e.ResetTree, paid1, paid1+paid2-int64(tr.NumPivots()+tr.Tail())
				}
				if err := reset(tr, q); err != nil {
					t.Fatal(err)
				}
				var first, second []metrics.Neighbor
				e.Expand(r1, func(id int32, d float64) { first = append(first, metrics.Neighbor{ID: id, Dist: d}) })
				if e.DistComps() != after1 {
					t.Fatalf("%s treeOnly=%v: first round paid %d evaluations, want %d", label, treeOnly, e.DistComps(), after1)
				}
				e.Expand(r2, func(id int32, d float64) { second = append(second, metrics.Neighbor{ID: id, Dist: d}) })
				if e.DistComps() != after2 {
					t.Fatalf("%s treeOnly=%v: two rounds paid %d evaluations, want %d", label, treeOnly, e.DistComps(), after2)
				}
				slices.SortFunc(first, metrics.CompareNeighbors)
				requireSameBits(t, fmt.Sprintf("%s treeOnly=%v, first round", label, treeOnly), first, refRangeSearch(tr, q, r1))
				slices.SortFunc(second, metrics.CompareNeighbors)
				requireSameBits(t, fmt.Sprintf("%s treeOnly=%v, second round", label, treeOnly), second, want)
			}
		}
	}
}

// TestSquaredCeil pins the select's threshold: d2 <= squaredCeil(r)
// exactly when sqrt(d2) <= r, at the threshold's neighbours and at the
// ends of the range.
func TestSquaredCeil(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	radii := []float64{0, 5e-324, 1e-200, 1e-160, 1, 1.5, 1e6, 1e154, 1e200, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < 2000; i++ {
		radii = append(radii, math.Exp(rng.NormFloat64()*8))
	}
	for _, r := range radii {
		x := squaredCeil(r)
		if !(math.Sqrt(x) <= r) {
			t.Fatalf("squaredCeil(%v) = %v, whose root %v exceeds it", r, x, math.Sqrt(x))
		}
		if up := math.Nextafter(x, math.Inf(1)); up != x && math.Sqrt(up) <= r {
			t.Fatalf("squaredCeil(%v) = %v, but the next float's root %v is still within", r, x, math.Sqrt(up))
		}
	}
	for _, r := range []float64{-1, math.Inf(-1), math.NaN()} {
		if x := squaredCeil(r); x >= 0 {
			t.Fatalf("squaredCeil(%v) = %v, want a value no squared distance reaches", r, x)
		}
	}
}

// TestScanRadiusSetAtLoad pins when the switch radius is derived: by a
// bulk load — eager, a deferred tree's first use after any number of
// inserts, or the first use of one regrown from the rows with its tail —
// from the leaves, which inserts never change.
func TestScanRadiusSetAtLoad(t *testing.T) {
	data := randData(500, 6, 12)
	cfg := Config{NumPivots: 3, PivotSeed: 2}
	tr, err := Build(data, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := NewDeferred(src, nil, src.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := tr.ScanRadius()
	if built <= 0 {
		t.Fatalf("built tree: switch radius %v", built)
	}
	for i, p := range randData(600, 6, 13) {
		if err := tr.Insert(p, int32(500+i)); err != nil {
			t.Fatal(err)
		}
		if err := deferred.Insert(p, int32(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.ScanRadius(); got != built {
		t.Fatalf("inserts moved the switch radius from %v to %v", built, got)
	}
	if got := deferred.ScanRadius(); got != built {
		t.Fatalf("a deferred tree loaded after the inserts has switch radius %v, built %v", got, built)
	}
	if regrown := regrow(t, tr, data); regrown.ScanRadius() != built || regrown.Tail() != 600 {
		t.Fatalf("regrown tree has switch radius %v and %d tail rows, built %v and 600", regrown.ScanRadius(), regrown.Tail(), built)
	}
}

// enumerateFixture is one BenchmarkEnumerate tree: knn-d128-shaped rows
// (a 12-dimensional subspace of 64 dimensions, relative contrast 2)
// under a 15-row Gaussian projection, the layout PM-LSH builds its tree
// over, and projected queries near stored points.
func enumerateFixture(b *testing.B, n int) (*Tree, [][]float64) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "enumerate", N: n, D: 64, SubspaceDim: 12, RCTarget: 2.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	proj, err := lsh.NewProjection(15, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := proj.ProjectStore(ds.Store)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := BuildFromStore(rows, nil, Config{NumPivots: 5, PivotSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return tr, proj.ProjectAll(ds.Queries(64, 2))
}

// BenchmarkEnumerate is the table behind scanRadiusFactor: one Expand to
// r — in units of the median leaf covering radius — on the traversal
// (ResetTree) and on the flat pass (Reset), over n. us/query is the mean
// over the fixture's queries and eval the share of the tree's points
// whose distance the enumeration paid.
//
// The select sub-benchmarks price a k-NN round's candidate selection at
// the paper's budget, limit = βn+k (β = 0.281, k = 50): Expand into a
// buffer, sort it by (distance, id) and keep the first limit, against
// one Nearest call. At 1x the radius holds fewer points than the budget
// and every one is taken; at 1.5x it holds twice the budget and the cut
// falls inside.
func BenchmarkEnumerate(b *testing.B) {
	for _, n := range []int{5000, 20000, 100000} {
		tr, queries := enumerateFixture(b, n)
		median := tr.ScanRadius() / scanRadiusFactor
		limit := int(math.Ceil(0.281*float64(n))) + 50
		for _, f := range []float64{1, 1.5} {
			for _, mode := range []string{"sorted", "nearest"} {
				b.Run(fmt.Sprintf("n=%d/select/r=%gx/%s", n, f, mode), func(b *testing.B) {
					var e RangeEnumerator
					var buf []metrics.Neighbor
					var ids []int32
					emit := func(id int32, d float64) { buf = append(buf, metrics.Neighbor{ID: id, Dist: d}) }
					taken := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := e.Reset(tr, queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
						if mode == "sorted" {
							buf = buf[:0]
							e.Expand(f*median, emit)
							slices.SortFunc(buf, metrics.CompareNeighbors)
							taken += min(limit, len(buf))
						} else {
							ids, _ = e.Nearest(f*median, limit, nil, ids)
							taken += len(ids)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
					b.ReportMetric(float64(taken)/float64(b.N)/float64(tr.Len()), "taken")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
		for _, f := range []float64{0.1, 0.25, 0.5, 1, 1.5} {
			for _, mode := range []string{"tree", "scan"} {
				b.Run(fmt.Sprintf("n=%d/r=%gx/%s", n, f, mode), func(b *testing.B) {
					var e RangeEnumerator
					reset := e.Reset
					if mode == "tree" {
						reset = e.ResetTree
					}
					emitted := 0
					emit := func(int32, float64) { emitted++ }
					var evals int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := reset(tr, queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
						e.Expand(f*median, emit)
						evals += e.DistComps()
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
					b.ReportMetric(float64(evals)/float64(b.N)/float64(tr.Len()), "eval")
					b.ReportMetric(float64(emitted)/float64(b.N)/float64(tr.Len()), "emitted")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
	}
}

// TestReleaseShedsOutgrownBuffers follows a pooled enumerator from a
// large tree to the small one a Compact leaves in its place: per-row
// distances and the round's delta were sized by the large tree, a pool
// never frees, so releasing the enumerator from the small tree must drop
// them — while releasing it from the tree that sized them keeps them
// warm.
func TestReleaseShedsOutgrownBuffers(t *testing.T) {
	build := func(n int) *Tree {
		tr, err := Build(randData(n, 6, int64(n)), nil, Config{NumPivots: 5, PivotSeed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	large, small := build(8000), build(100)
	emit := func(int32, float64) {}
	var e RangeEnumerator
	// Two enumerations, one held on the traversal, one scanning, so that
	// the row distances reach the tree's size; a second round takes every
	// point, so that the delta does.
	use := func(tr *Tree) {
		q := wide(tr.built().row(0))
		for _, reset := range []func(*Tree, []float64) error{e.ResetTree, e.Reset} {
			if err := reset(tr, q); err != nil {
				t.Fatal(err)
			}
			e.Expand(tr.ScanRadius()/scanRadiusFactor, emit)
			e.Nearest(math.Inf(1), math.MaxInt, nil, nil)
			e.Release()
		}
	}
	use(large)
	if cap(e.rowD2) < large.Rows() || cap(e.shares[0].sel) < large.Len() {
		t.Fatalf("released from the tree that sized them: row distances %d, delta %d kept for %d rows",
			cap(e.rowD2), cap(e.shares[0].sel), large.Rows())
	}
	use(small)
	bound := 2*small.Rows() + 1024
	if cap(e.rowD2) > bound || cap(e.shares[0].sel) > bound {
		t.Fatalf("released from a %d-row tree: row distances %d, delta %d still held",
			small.Rows(), cap(e.rowD2), cap(e.shares[0].sel))
	}
}
