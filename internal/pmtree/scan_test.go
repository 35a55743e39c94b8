package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
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
// (dead rows under the leaves and in the tail), grown from New by Insert
// alone (all tail), and holding a few points many times over.
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

			cases = append(cases, scanCase{name + "/built", build(base), liveOf(base)})

			worn := build(base)
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
			cases = append(cases, scanCase{name + "/worn", worn, liveOf(data)})

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
			if grown.scanRadius != 0 || grown.Tail() != len(base) {
				tb.Fatalf("%s: a tree grown by Insert alone has switch radius %v and %d tail rows",
					name, grown.scanRadius, grown.Tail())
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
			if dups.scanRadius != 0 {
				tb.Fatalf("%s: duplicate-heavy tree has switch radius %v, want 0", name, dups.scanRadius)
			}
			cases = append(cases, scanCase{name + "/duplicates", dups, liveOf(dup)})
		}
	}
	return cases
}

// TestScanMatchesTree is the property the switch rests on: whatever the
// radius schedule, and wherever in it the enumeration leaves the tree
// for the flat pass — from the switch radius, or from its second round —
// every Expand emits the set of points the traversal alone emits at that
// radius — the same ids with bit-identical distances, no dead row,
// nothing twice.
func TestScanMatchesTree(t *testing.T) {
	for _, c := range scanCases(t) {
		tr := c.tr
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		ids := make([]int32, 0, len(c.live))
		for id := range c.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		crossed := false
		for qi := 0; qi < 8; qi++ {
			q := c.live[ids[rng.Intn(len(ids))]]
			if qi%2 == 1 {
				q = randData(1, tr.Dim(), rng.Int63())[0]
			}
			// In units of the switch radius: rounds below it, one on it,
			// rounds above. A switch radius of 0 leaves no "below".
			schedule := []float64{0, 5, 20, 1e6}
			if sr := tr.scanRadius; sr > 0 {
				schedule = []float64{0, 0.4 * sr, (0.6 + 0.3*rng.Float64()) * sr, sr, 1.5 * sr, 4 * sr, 20 * sr, 1e6}
				// The first round alone can traverse: start it at 0, at either
				// radius under the switch, or past it (scans from its first
				// round).
				schedule = schedule[[]int{0, 1, 4, 2}[qi%4]:]
			}

			var sw RangeEnumerator
			ref := RangeEnumerator{treeOnly: true}
			if err := sw.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			if err := ref.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			treeRounds := 0
			for ri, r := range schedule {
				label := fmt.Sprintf("%s query %d radius %v", c.name, qi, r)
				var got, want []Result
				sw.Expand(r, func(id int32, d float64) {
					if _, ok := c.live[id]; !ok || seen[id] {
						t.Fatalf("%s: emitted id %d (live %v, seen %v)", label, id, ok, seen[id])
					}
					seen[id] = true
					got = append(got, Result{ID: id, Dist: d})
				})
				ref.Expand(r, func(id int32, d float64) { want = append(want, Result{ID: id, Dist: d}) })
				sortResults(got)
				sortResults(want)
				requireSameBits(t, label, got, want)
				if sw.scanning != (r >= tr.scanRadius || ri > 0) {
					t.Fatalf("%s: scanning %v in round %d with switch radius %v", label, sw.scanning, ri, tr.scanRadius)
				}
				if !sw.scanning {
					treeRounds++
				} else if treeRounds > 0 {
					crossed = true
				}
			}
			if len(seen) != len(c.live) {
				t.Fatalf("%s query %d: %d of %d points emitted by radius 1e6", c.name, qi, len(seen), len(c.live))
			}
			if ref.scanning {
				t.Fatalf("%s: the tree-only enumerator scanned", c.name)
			}
			// A query that scans from its first round pays the store's rows
			// and nothing else, pivot distances included.
			if treeRounds == 0 && sw.DistComps() != int64(tr.Rows()) {
				t.Fatalf("%s query %d: scanned enumeration paid %d evaluations over %d rows", c.name, qi, sw.DistComps(), tr.Rows())
			}
		}
		if tr.scanRadius > 0 && !crossed {
			t.Fatalf("%s: no schedule crossed the switch radius mid-enumeration", c.name)
		}
	}
}

// TestEnumerationTraversesAtMostOnce pins what an enumeration carries
// out of the tree: nothing but its radius. On trees with a tail and dead
// rows, a first round under the switch radius is a traversal that pays
// for fewer evaluations than there are rows; the second round, whatever
// its radius, is the flat pass — exactly Rows evaluations more — and
// emits exactly what the reference finds in (first radius, second].
func TestEnumerationTraversesAtMostOnce(t *testing.T) {
	for _, c := range scanCases(t) {
		tr := c.tr
		if tr.scanRadius == 0 {
			continue // no radius under the switch
		}
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		for qi := 0; qi < 6; qi++ {
			q := randData(1, tr.Dim(), rng.Int63())[0]
			r1 := (0.3 + 0.4*rng.Float64()) * tr.scanRadius
			// Still under the switch, on it, and far past it.
			r2 := []float64{math.Nextafter(r1, 2*r1), tr.scanRadius, 6 * tr.scanRadius}[qi%3]
			label := fmt.Sprintf("%s query %d radii %v, %v", c.name, qi, r1, r2)

			var e RangeEnumerator
			if err := e.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			var first, second, want []Result
			e.Expand(r1, func(id int32, d float64) { first = append(first, Result{ID: id, Dist: d}) })
			paid := e.DistComps()
			if e.scanning || paid >= int64(tr.Rows()) {
				t.Fatalf("%s: first round scanning=%v paid %d evaluations over %d rows", label, e.scanning, paid, tr.Rows())
			}
			e.Expand(r2, func(id int32, d float64) { second = append(second, Result{ID: id, Dist: d}) })
			if !e.scanning || e.DistComps() != paid+int64(tr.Rows()) {
				t.Fatalf("%s: second round scanning=%v paid %d evaluations after %d, over %d rows",
					label, e.scanning, e.DistComps(), paid, tr.Rows())
			}
			sortResults(first)
			requireSameBits(t, label+", first round", first, refRangeSearch(tr, q, r1))
			for _, res := range refRangeSearch(tr, q, r2) {
				if res.Dist > r1 {
					want = append(want, res)
				}
			}
			sortResults(second)
			requireSameBits(t, label+", second round", second, want)
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
// bulk load and by Read (the same value, the stream carries no trace of
// it), from the leaves — which inserts never change, however many.
func TestScanRadiusSetAtLoad(t *testing.T) {
	data := randData(500, 6, 12)
	tr, err := Build(data, nil, Config{NumPivots: 3, PivotSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	built := tr.scanRadius
	if built <= 0 {
		t.Fatalf("built tree: switch radius %v", built)
	}
	for i, p := range randData(600, 6, 13) {
		if err := tr.Insert(p, int32(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.scanRadius != built {
		t.Fatalf("inserts moved the switch radius from %v to %v", built, tr.scanRadius)
	}
	if loaded := roundTrip(t, tr); loaded.scanRadius != built {
		t.Fatalf("loaded tree has switch radius %v, built %v", loaded.scanRadius, built)
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
// alone and with the switch in place, over n. us/query is the mean over
// the fixture's queries and eval the share of the tree's points whose
// distance the enumeration paid.
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
		median := tr.scanRadius / scanRadiusFactor
		limit := int(math.Ceil(0.281*float64(n))) + 50
		for _, f := range []float64{1, 1.5} {
			for _, mode := range []string{"sorted", "nearest"} {
				b.Run(fmt.Sprintf("n=%d/select/r=%gx/%s", n, f, mode), func(b *testing.B) {
					var e RangeEnumerator
					var buf []Result
					var ids []int32
					emit := func(id int32, d float64) { buf = append(buf, Result{ID: id, Dist: d}) }
					taken := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := e.Reset(tr, queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
						if mode == "sorted" {
							buf = buf[:0]
							e.Expand(f*median, emit)
							sortResults(buf)
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
			for _, mode := range []string{"tree", "switched"} {
				b.Run(fmt.Sprintf("n=%d/r=%gx/%s", n, f, mode), func(b *testing.B) {
					e := RangeEnumerator{treeOnly: mode == "tree"}
					emitted := 0
					emit := func(int32, float64) { emitted++ }
					var evals int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := e.Reset(tr, queries[i%len(queries)]); err != nil {
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
		q := tr.row(0)
		for _, treeOnly := range []bool{true, false} {
			e.treeOnly = treeOnly
			if err := e.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			e.Expand(tr.scanRadius/scanRadiusFactor, emit)
			e.Nearest(math.Inf(1), math.MaxInt, nil, nil)
			e.Release()
		}
	}
	use(large)
	if cap(e.rowD2) < large.Rows() || cap(e.sel) < large.Len() {
		t.Fatalf("released from the tree that sized them: row distances %d, delta %d kept for %d rows",
			cap(e.rowD2), cap(e.sel), large.Rows())
	}
	use(small)
	bound := 2*small.Rows() + 1024
	if cap(e.rowD2) > bound || cap(e.sel) > bound {
		t.Fatalf("released from a %d-row tree: row distances %d, delta %d still held",
			small.Rows(), cap(e.rowD2), cap(e.sel))
	}
}
