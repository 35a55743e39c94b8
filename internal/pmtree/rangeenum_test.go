package pmtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vec"
)

// refRangeSearch runs the retained recursive traversal with the same
// validation and ordering as the public RangeSearch.
func refRangeSearch(t *Tree, q []float64, r float64) []metrics.Neighbor {
	if t.count == 0 {
		return nil
	}
	var out []metrics.Neighbor
	t.rangeSearchRef(q, r, func(id int32, d float64) {
		out = append(out, metrics.Neighbor{ID: id, Dist: d})
	})
	sortResults(out)
	return out
}

// refRangeCost is the metric evaluations the reference traversal pays
// for range(q, r).
func refRangeCost(t *Tree, q []float64, r float64) int64 {
	return t.rangeSearchRef(q, r, func(int32, float64) {})
}

// rangeSearchPaid is RangeSearch with the metric evaluations its
// enumeration paid (DistComps).
func rangeSearchPaid(tb testing.TB, t *Tree, q []float64, r float64) ([]metrics.Neighbor, int64) {
	tb.Helper()
	var e RangeEnumerator
	if err := e.ResetTree(t, q); err != nil {
		tb.Fatal(err)
	}
	var out []metrics.Neighbor
	e.Expand(r, func(id int32, d float64) { out = append(out, metrics.Neighbor{ID: id, Dist: d}) })
	sortResults(out)
	return out, e.DistComps()
}

// rangeSearchRef is the original depth-first range search, retained
// entry by entry as the reference implementation the streaming
// enumerator is verified against (TestRangeSearchMatchesRecursiveReference
// and the core engine's equivalence suite), followed by a row-at-a-time
// pass over the tail. visit is called once per qualifying point, in
// traversal order. It returns the metric evaluations it paid.
func (t *Tree) rangeSearchRef(q []float64, r float64, visit func(id int32, d float64)) int64 {
	var dists int64
	dist := func(p []float64) float64 {
		dists++
		return vec.L2(q, p)
	}
	l := t.built()
	qp := make([]float64, len(l.pivots))
	for i, pv := range l.pivots {
		qp[i] = dist(pv)
	}
	// qParentDist is d(q, n's routing object); unused at the root (parent nil).
	var rec func(n *node, parent []float64, qParentDist float64)
	rec = func(n *node, parent []float64, qParentDist float64) {
		if n.leaf {
		entries:
			for i, id := range l.leafIDs(n) {
				if !t.liveID(id) {
					continue
				}
				if parent != nil && math.Abs(qParentDist-n.parentDist[i]) > r {
					continue
				}
				for k, d := range n.pivotDists(i, len(qp)) {
					if math.Abs(qp[k]-d) > r {
						continue entries
					}
				}
				if d := dist(wide(l.leafPoint(n, i))); d <= r {
					visit(id, d)
				}
			}
			return
		}
		for i := range n.routing {
			e := &n.routing[i]
			if ringPrune(qp, e.hr, r) {
				continue
			}
			if parent != nil && math.Abs(qParentDist-e.parentDist) > r+e.radius {
				continue
			}
			d := dist(e.center)
			if d > r+e.radius {
				continue
			}
			rec(e.child, e.center, d)
		}
	}
	rec(l.root, nil, 0)
	for i, id := range t.tail.rowID {
		// Dead rows are evaluated too, as the enumerator's one kernel call
		// over the tail evaluates them.
		if d := dist(wide(t.tail.row(i))); t.liveID(id) && d <= r {
			visit(id, d)
		}
	}
	return dists
}

// randomTree builds a tree under a randomized configuration, optionally
// churned by extra inserts and deletes, and returns it with its live
// data (for query/radius sampling).
func randomTree(tb testing.TB, rng *rand.Rand) (*Tree, [][]float64) {
	tb.Helper()
	n := 80 + rng.Intn(400)
	dim := 2 + rng.Intn(10)
	cfg := Config{
		Capacity:  4 + rng.Intn(20),
		NumPivots: rng.Intn(6),
		PivotSeed: rng.Int63(),
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = float64(float32(rng.NormFloat64() * 5)) // held as handed over (see randData)
		}
	}
	tr, err := Build(data, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if rng.Intn(2) == 0 { // churn half the time
		for i := 0; i < 30; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(float32(rng.NormFloat64() * 5))
			}
			if err := tr.Insert(p, int32(n+i)); err != nil {
				tb.Fatal(err)
			}
			data = append(data, p)
		}
		for i := 0; i < 40; i++ {
			victim := rng.Intn(len(data))
			if data[victim] == nil {
				continue
			}
			if err := tr.Delete(int32(victim)); err != nil {
				tb.Fatal(err)
			}
			data[victim] = nil
		}
	}
	live := data[:0:0]
	for _, p := range data {
		if p != nil {
			live = append(live, p)
		}
	}
	return tr, live
}

func requireSameResults(tb testing.TB, label string, got, want []metrics.Neighbor) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRangeSearchMatchesRecursiveReference pins the enumerator-backed
// RangeSearch bit-identical — ids, distances, order, and projected
// distance-computation count — to the retained recursive traversal
// across randomized configurations (capacity, pivot count, churn).
func TestRangeSearchMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		tr, live := randomTree(t, rng)
		for qi := 0; qi < 10; qi++ {
			q := live[rng.Intn(len(live))]
			// Radii from degenerate to everything.
			r := [...]float64{0, rng.Float64() * 5, rng.Float64() * 20, 1e6}[qi%4]
			want, refDists := refRangeSearch(tr, q, r), refRangeCost(tr, q, r)
			got, err := tr.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			_, gotDists := rangeSearchPaid(t, tr, q, r)
			requireSameResults(t, "RangeSearch vs recursive reference", got, want)
			if gotDists != refDists {
				t.Fatalf("trial %d: enumerator paid %d distance computations, reference %d",
					trial, gotDists, refDists)
			}
		}
	}
}

// TestRangeEnumeratorResumes checks the enumeration property: expanding
// one enumerator through a radius ladder emits every point exactly
// once, each in the round where its distance first enters the radius,
// with the union matching a from-scratch RangeSearch at the final
// radius — and pays fewer projected distance computations (one pass over
// the rows) than restarting the search per rung.
func TestRangeEnumeratorResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		tr, live := randomTree(t, rng)
		q := live[rng.Intn(len(live))]
		// Start the ladder at the ~20th nearest distance so every rung
		// holds points: the restart loop then demonstrably re-pays for
		// them round after round while the enumerator does not.
		dists := make([]float64, len(live))
		for i, p := range live {
			var s float64
			for j := range p {
				d := p[j] - q[j]
				s += d * d
			}
			dists[i] = math.Sqrt(s)
		}
		sort.Float64s(dists)
		r := dists[min(20, len(dists)-1)]
		var ladder []float64
		for i := 0; i < 4; i++ {
			ladder = append(ladder, r)
			r *= 1.5
		}

		var en RangeEnumerator
		if err := en.Reset(tr, q); err != nil {
			t.Fatal(err)
		}
		seen := make(map[int32]float64)
		var all []metrics.Neighbor
		prev := math.Inf(-1)
		for _, rr := range ladder {
			var round []metrics.Neighbor
			en.Expand(rr, func(id int32, d float64) {
				round = append(round, metrics.Neighbor{ID: id, Dist: d})
			})
			for _, res := range round {
				if old, dup := seen[res.ID]; dup {
					t.Fatalf("trial %d: id %d emitted twice (dists %v, %v)", trial, res.ID, old, res.Dist)
				}
				seen[res.ID] = res.Dist
				if res.Dist > rr || res.Dist <= prev {
					t.Fatalf("trial %d: round at r=%v emitted distance %v (previous radius %v)",
						trial, rr, res.Dist, prev)
				}
			}
			all = append(all, round...)
			prev = rr
		}
		streamDists := en.DistComps()
		sortResults(all)

		var restartDists int64
		var want []metrics.Neighbor
		for _, rr := range ladder {
			res, paid := rangeSearchPaid(t, tr, q, rr)
			want = res
			restartDists += paid
		}
		requireSameResults(t, "resumed union vs final RangeSearch", all, want)
		if streamDists >= restartDists {
			t.Fatalf("trial %d: streaming paid %d distance computations, restart loop %d",
				trial, streamDists, restartDists)
		}
	}
}

// TestRangeEnumeratorReuse pins the pooled lifecycle: one enumerator
// value Reset across different trees and queries answers identically
// to fresh enumerators.
func TestRangeEnumeratorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var e RangeEnumerator
	for trial := 0; trial < 10; trial++ {
		tr, live := randomTree(t, rng)
		q := live[rng.Intn(len(live))]
		r := rng.Float64() * 10
		if err := e.Reset(tr, q); err != nil {
			t.Fatal(err)
		}
		var got []metrics.Neighbor
		e.Expand(r, func(id int32, d float64) {
			got = append(got, metrics.Neighbor{ID: id, Dist: d})
		})
		sortResults(got)
		want, err := tr.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, "reused enumerator", got, want)
		e.Release()
	}
}

func TestRangeEnumeratorValidation(t *testing.T) {
	tr, err := Build([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var e RangeEnumerator
	if err := e.ResetTree(tr, []float64{1}); err == nil {
		t.Fatal("ResetTree accepted a dimension mismatch")
	}
	if err := e.Reset(tr, []float64{1, 2, 3}); err == nil {
		t.Fatal("Reset accepted a dimension mismatch")
	}
}
