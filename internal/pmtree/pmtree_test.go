package pmtree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/vec"
)

// randData returns n points of d Gaussian coordinates, each one a
// float32 value, so that the tree holds them as handed over and a test
// can compare against the caller's rows (TestRoundedPointsMatchBruteForce
// covers points the tree must round).
func randData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(float32(rng.NormFloat64() * 10))
		}
		out[i] = p
	}
	return out
}

// wide returns a stored row as float64.
func wide(p []float32) []float64 { return widenTo(make([]float64, len(p)), p) }

func bruteRange(data [][]float64, q []float64, r float64) []metrics.Neighbor {
	var out []metrics.Neighbor
	for i, p := range data {
		if d := vec.L2(q, p); d <= r {
			out = append(out, metrics.Neighbor{ID: int32(i), Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func sameResults(a, b []metrics.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Error("dim=0 should fail")
	}
	if _, err := New(3, Config{Capacity: 2}); err == nil {
		t.Error("capacity=2 should fail")
	}
	if _, err := New(3, Config{NumPivots: -1}); err == nil {
		t.Error("negative pivots should fail")
	}
	tr, err := New(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.gen.cfg.Capacity != DefaultCapacity {
		t.Errorf("default capacity = %d", tr.gen.cfg.Capacity)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Error("empty build should fail")
	}
	if _, err := Build([][]float64{{1, 2}}, []int32{1, 2}, Config{}); err == nil {
		t.Error("id length mismatch should fail")
	}
	// -1 names a row whose point is gone; a generation lies within the rows.
	s, err := store.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(s.Rows(), []int32{0, -2}, Config{}); err == nil {
		t.Error("id -2 should fail")
	}
	for _, frozen := range []int{-1, 3} {
		if _, err := NewDeferred(s, nil, frozen, Config{}); err == nil {
			t.Errorf("a generation of %d rows of 2 should fail", frozen)
		}
	}
	tr, err := NewDeferred(s, []int32{-1, 4}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Tail() != 1 || !tr.IsLive(4) || tr.IsLive(0) {
		t.Errorf("rows with ids -1 and 4, one frozen: %d live, %d tail rows", tr.Len(), tr.Tail())
	}
}

func TestInsertDimMismatch(t *testing.T) {
	tr, _ := New(3, Config{})
	if err := tr.Insert([]float64{1, 2}, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr, _ := New(3, Config{NumPivots: 2})
	res, err := tr.RangeSearch([]float64{0, 0, 0}, 5)
	if err != nil || res != nil {
		t.Errorf("empty range: %v %v", res, err)
	}
}

func TestQueryValidation(t *testing.T) {
	data := randData(10, 4, 1)
	tr, _ := Build(data, nil, Config{NumPivots: 2})
	if _, err := tr.RangeSearch([]float64{1}, 1); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := tr.RangeSearch(data[0], -1); err == nil {
		t.Error("negative radius should fail")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	for _, s := range []int{0, 3, 5} {
		data := randData(500, 8, 7)
		tr, err := Build(data, nil, Config{NumPivots: s, PivotSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 25; trial++ {
			q := make([]float64, 8)
			for j := range q {
				q[j] = rng.NormFloat64() * 10
			}
			r := rng.Float64() * 25
			got, err := tr.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRange(data, q, r)
			if !sameResults(got, want) {
				t.Fatalf("s=%d trial=%d: range mismatch: got %d, want %d", s, trial, len(got), len(want))
			}
		}
	}
}

// Property: random datasets and radii — tree range equals brute force.
func TestRangeQuick(t *testing.T) {
	f := func(seed int64, ru uint8) bool {
		n := 80
		data := randData(n, 5, seed)
		tr, err := Build(data, nil, Config{NumPivots: 4, Capacity: 6, PivotSeed: seed})
		if err != nil {
			return false
		}
		q := data[int(ru)%n]
		r := float64(ru%40) / 2
		got, err := tr.RangeSearch(q, r)
		if err != nil {
			return false
		}
		return sameResults(got, bruteRange(data, q, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Structural invariants: every point within every ancestor ball, every
// pivot distance inside every ancestor ring.
func TestStructuralInvariants(t *testing.T) {
	data := randData(600, 7, 99)
	tr, err := Build(data, nil, Config{NumPivots: 5, Capacity: 8, PivotSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := tr.built()
	var verify func(n *node, ancestors []*routingEntry)
	verify = func(n *node, ancestors []*routingEntry) {
		if n.leaf {
			for i, id := range l.leafIDs(n) {
				pivotDist := n.pivotDists(i, len(l.pivots))
				for _, a := range ancestors {
					if d := vec.L2(wide(l.leafPoint(n, i)), a.center); d > a.radius+1e-9 {
						t.Fatalf("point %d outside ancestor ball: %v > %v", id, d, a.radius)
					}
					for k, pd := range pivotDist {
						if pd < a.hr[k].Min-1e-9 || pd > a.hr[k].Max+1e-9 {
							t.Fatalf("point %d pivot %d dist %v outside ring [%v,%v]",
								id, k, pd, a.hr[k].Min, a.hr[k].Max)
						}
					}
				}
				// Stored pivot distances must be exact.
				for k, pd := range pivotDist {
					if math.Abs(pd-vec.L2(wide(l.leafPoint(n, i)), l.pivots[k])) > 1e-9 {
						t.Fatalf("stale pivot distance for point %d pivot %d", id, k)
					}
				}
			}
			return
		}
		for i := range n.routing {
			e := &n.routing[i]
			verify(e.child, append(ancestors, e))
		}
	}
	verify(l.root, nil)
}

func TestNodeCapacityRespected(t *testing.T) {
	data := randData(500, 4, 31)
	tr, _ := Build(data, nil, Config{NumPivots: 3, Capacity: 8})
	tr.Walk(func(info NodeInfo) {
		if info.NumEntries > 8 {
			t.Fatalf("node with %d entries exceeds capacity 8", info.NumEntries)
		}
		if info.NumEntries == 0 {
			t.Fatal("empty node in tree")
		}
	})
}

func TestLenDimHeight(t *testing.T) {
	data := randData(300, 5, 8)
	tr, _ := Build(data, nil, Config{NumPivots: 2})
	if tr.Len() != 300 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Dim() != 5 {
		t.Errorf("Dim = %d", tr.Dim())
	}
	if h := height(tr); h < 2 {
		t.Errorf("height = %d, want >= 2 for 300 points at capacity 16", h)
	}
	if tr.NumPivots() != 2 || len(tr.built().pivots) != 2 {
		t.Errorf("NumPivots = %d", tr.NumPivots())
	}
}

// height returns the number of levels (1 for a root-only tree).
func height(tr *Tree) int {
	h := 1
	for n := tr.built().root; !n.leaf; n = n.routing[0].child {
		h++
	}
	return h
}

func TestCustomIDs(t *testing.T) {
	data := randData(50, 3, 4)
	ids := make([]int32, 50)
	for i := range ids {
		ids[i] = int32(1000 + i)
	}
	tr, _ := Build(data, ids, Config{NumPivots: 2})
	res, _ := tr.RangeSearch(data[7], 0)
	if len(res) != 1 || res[0].ID != 1007 {
		t.Errorf("got %v, want ID 1007", res)
	}
}

// Pruning power: with pivots the tree should need no more distance
// computations than without (on average clearly fewer).
func TestPivotsReduceDistanceComputations(t *testing.T) {
	data := randData(2000, 8, 55)
	plain, _ := Build(data, nil, Config{NumPivots: 0})
	pm, _ := Build(data, nil, Config{NumPivots: 5, PivotSeed: 3})
	rng := rand.New(rand.NewSource(77))
	var plainWork, pmWork int64
	for i := 0; i < 30; i++ {
		q := data[rng.Intn(len(data))]
		r := 10 + rng.Float64()*10
		_, paid := rangeSearchPaid(t, plain, q, r)
		plainWork += paid
		_, paid = rangeSearchPaid(t, pm, q, r)
		pmWork += paid
	}
	// Subtract the per-query pivot-distance overhead (5 per query).
	pmWork -= int64(30 * 5)
	if pmWork > plainWork {
		t.Errorf("pivots increased work: pm=%d plain=%d", pmWork, plainWork)
	}
}

func TestDuplicatePointsSplitSafely(t *testing.T) {
	// 100 identical points force degenerate splits.
	data := make([][]float64, 100)
	for i := range data {
		data[i] = []float64{1, 2, 3}
	}
	tr, err := Build(data, nil, Config{NumPivots: 2, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.RangeSearch([]float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 100 {
		t.Errorf("found %d duplicates, want 100", len(res))
	}
}

func TestRangeZeroRadius(t *testing.T) {
	data := randData(100, 4, 6)
	tr, _ := Build(data, nil, Config{NumPivots: 2})
	res, err := tr.RangeSearch(data[42], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 42 {
		t.Errorf("zero-radius search = %v", res)
	}
}

func TestWalkCoversAllPoints(t *testing.T) {
	data := randData(350, 5, 17)
	tr, _ := Build(data, nil, Config{NumPivots: 3})
	leafTotal := 0
	nodes := 0
	tr.Walk(func(info NodeInfo) {
		nodes++
		if info.Leaf {
			leafTotal += info.NumEntries
		}
	})
	if leafTotal != 350 {
		t.Errorf("leaves hold %d points, want 350", leafTotal)
	}
	if nodes < 350/DefaultCapacity {
		t.Errorf("unexpectedly few nodes: %d", nodes)
	}
}

func TestSelectPivotsSeparation(t *testing.T) {
	data := randData(500, 6, 23)
	pv := selectPivots(data, 5, 1)
	if len(pv) != 5 {
		t.Fatalf("got %d pivots", len(pv))
	}
	// Pivots should be pairwise distinct and reasonably separated
	// compared with the average pairwise distance.
	var avg float64
	cnt := 0
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			avg += vec.L2(data[i], data[j])
			cnt++
		}
	}
	avg /= float64(cnt)
	for i := range pv {
		for j := i + 1; j < len(pv); j++ {
			d := vec.L2(pv[i], pv[j])
			if d < avg*0.5 {
				t.Errorf("pivots %d,%d too close: %v (avg %v)", i, j, d, avg)
			}
		}
	}
	if selectPivots(nil, 3, 1) != nil {
		t.Error("no data should give no pivots")
	}
	if got := selectPivots(data[:2], 5, 1); len(got) != 2 {
		t.Errorf("s capped at n: got %d", len(got))
	}
}

// Read-only queries from many goroutines must be race-free (counters
// are atomic) and agree with sequential answers. Run with -race.
func TestConcurrentRangeQueries(t *testing.T) {
	data := randData(800, 6, 71)
	tr, _ := Build(data, nil, Config{NumPivots: 4})
	queries := make([][]float64, 12)
	radii := make([]float64, 12)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		q := make([]float64, 6)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		queries[i] = q
		radii[i] = 5 + rng.Float64()*15
	}
	want := make([][]metrics.Neighbor, len(queries))
	for i := range queries {
		res, err := tr.RangeSearch(queries[i], radii[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	got := make([][]metrics.Neighbor, len(queries))
	errs := make([]error, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = tr.RangeSearch(queries[i], radii[i])
		}(i)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameResults(got[i], want[i]) {
			t.Fatalf("concurrent query %d differs from sequential", i)
		}
	}
}

func TestIntervalOps(t *testing.T) {
	iv := emptyInterval()
	iv.extend(3)
	if iv.Min != 3 || iv.Max != 3 {
		t.Errorf("extend: %+v", iv)
	}
	iv.extend(1)
	iv.extend(5)
	if iv.Min != 1 || iv.Max != 5 {
		t.Errorf("extend: %+v", iv)
	}
	other := Interval{Min: -1, Max: 2}
	iv.union(other)
	if iv.Min != -1 || iv.Max != 5 {
		t.Errorf("union: %+v", iv)
	}
}
