package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/vec"
)

func randData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		out[i] = p
	}
	return out
}

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

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Error("dim=0 should fail")
	}
	if _, err := New(2, Config{Capacity: 3}); err == nil {
		t.Error("capacity=3 should fail")
	}
	tr, err := New(2, Config{})
	if err != nil || tr.capacity != DefaultCapacity {
		t.Errorf("defaults wrong: %v %v", tr, err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Error("empty build should fail")
	}
	if _, err := Build([][]float64{{1}}, []int32{1, 2}, Config{}); err == nil {
		t.Error("id mismatch should fail")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	data := randData(600, 6, 5)
	tr, err := Build(data, nil, Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		q := make([]float64, 6)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		r := rng.Float64() * 20
		got, err := tr.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(data, q, r)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d pos %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// firstK is the k-NN answer SRS reads off the iterator: its first k
// points, fewer when the tree holds fewer.
func firstK(t *testing.T, tr *Tree, q []float64, k int) []metrics.Neighbor {
	t.Helper()
	it, err := tr.NewIterator(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []metrics.Neighbor
	for len(out) < k {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, metrics.Neighbor{ID: id, Dist: d})
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	data := randData(400, 5, 12)
	tr, _ := Build(data, nil, Config{})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 5)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		k := 1 + rng.Intn(25)
		got := firstK(t, tr, q, k)
		want := bruteRange(data, q, math.Inf(1))
		if len(got) != k {
			t.Fatalf("got %d results, want %d", len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("k=%d pos=%d: dist %v vs %v", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// The incremental iterator must yield every point exactly once in
// non-decreasing distance order — the contract SRS relies on.
func TestIteratorOrderAndCompleteness(t *testing.T) {
	data := randData(300, 4, 20)
	tr, _ := Build(data, nil, Config{Capacity: 6})
	q := make([]float64, 4)
	it, err := tr.NewIterator(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	prev := -1.0
	for {
		id, d, ok := it.Next()
		if !ok {
			break
		}
		if d < prev-1e-12 {
			t.Fatalf("distance went backwards: %v after %v", d, prev)
		}
		prev = d
		if seen[id] {
			t.Fatalf("id %d yielded twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 300 {
		t.Errorf("iterator yielded %d points, want 300", len(seen))
	}
}

func TestIteratorEmptyTree(t *testing.T) {
	tr, _ := New(3, Config{})
	it, err := tr.NewIterator([]float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := it.Next(); ok {
		t.Error("empty tree iterator should be exhausted")
	}
}

func TestQueryValidation(t *testing.T) {
	data := randData(10, 3, 1)
	tr, _ := Build(data, nil, Config{})
	if _, err := tr.RangeSearch([]float64{1}, 1); err == nil {
		t.Error("dim mismatch")
	}
	if _, err := tr.RangeSearch(data[0], -1); err == nil {
		t.Error("negative radius")
	}
	if _, err := tr.NewIterator([]float64{1}); err == nil {
		t.Error("iterator dim mismatch")
	}
}

// Property: random data — range results equal brute force.
func TestRangeQuick(t *testing.T) {
	f := func(seed int64, ru uint8) bool {
		data := randData(70, 4, seed)
		tr, err := Build(data, nil, Config{Capacity: 5})
		if err != nil {
			return false
		}
		q := data[int(ru)%70]
		r := float64(ru%30) / 2
		got, err := tr.RangeSearch(q, r)
		if err != nil {
			return false
		}
		want := bruteRange(data, q, r)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// MBR invariant: every point lies inside every ancestor MBR.
func TestMBRInvariant(t *testing.T) {
	data := randData(500, 5, 33)
	tr, _ := Build(data, nil, Config{Capacity: 8})
	var verify func(n *node, ancestors []Rect)
	verify = func(n *node, ancestors []Rect) {
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				for _, a := range ancestors {
					if a.MinDistSq(tr.leafPoint(e)) != 0 {
						t.Fatalf("point %d outside ancestor MBR", e.id)
					}
				}
				continue
			}
			verify(e.child, append(ancestors, e.rect))
		}
	}
	verify(tr.root, nil)
}

func TestNodeCapacityAndMinFill(t *testing.T) {
	data := randData(800, 4, 44)
	tr, _ := Build(data, nil, Config{Capacity: 8})
	leafTotal := 0
	tr.Walk(func(info NodeInfo) {
		if info.NumEntries > 8 {
			t.Fatalf("node with %d entries exceeds capacity", info.NumEntries)
		}
		if info.NumEntries == 0 {
			t.Fatal("empty node")
		}
		if info.Leaf {
			leafTotal += info.NumEntries
		}
	})
	if leafTotal != 800 {
		t.Errorf("leaves hold %d points, want 800", leafTotal)
	}
}

func TestRectOps(t *testing.T) {
	r := NewRect([]float64{1, 2})
	if r.Volume() != 0 {
		t.Error("point rect should have zero volume")
	}
	r.extendPoint([]float64{3, 1})
	if r.Lo[0] != 1 || r.Lo[1] != 1 || r.Hi[0] != 3 || r.Hi[1] != 2 {
		t.Errorf("extendPoint: %+v", r)
	}
	if r.Volume() != 2 {
		t.Errorf("Volume = %v", r.Volume())
	}
	if r.margin() != 3 {
		t.Errorf("margin = %v", r.margin())
	}
	o := NewRect([]float64{5, 5})
	if got := r.enlargement(o); got <= 0 {
		t.Errorf("enlargement = %v", got)
	}
	// MinDistSq: q inside → 0; q outside → squared gap.
	if r.MinDistSq([]float64{2, 1.5}) != 0 {
		t.Error("inside MinDistSq should be 0")
	}
	if got := r.MinDistSq([]float64{4, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("MinDistSq = %v, want 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	data := randData(200, 4, 3)
	tr, _ := Build(data, nil, Config{})
	tr.ResetStats()
	if _, err := tr.RangeSearch(data[0], 5); err != nil {
		t.Fatal(err)
	}
	if tr.DistanceComputations() == 0 || tr.NodeAccesses() == 0 {
		t.Error("counters should be positive after a query")
	}
	tr.ResetStats()
	if tr.DistanceComputations() != 0 || tr.NodeAccesses() != 0 {
		t.Error("reset failed")
	}
}

func TestHeightGrows(t *testing.T) {
	data := randData(1000, 3, 10)
	tr, _ := Build(data, nil, Config{Capacity: 4})
	if tr.Height() < 3 {
		t.Errorf("height %d too small for 1000 pts at capacity 4", tr.Height())
	}
	if tr.Len() != 1000 || tr.Dim() != 3 {
		t.Errorf("Len/Dim wrong: %d %d", tr.Len(), tr.Dim())
	}
}

func TestCustomIDs(t *testing.T) {
	data := randData(30, 3, 2)
	ids := make([]int32, 30)
	for i := range ids {
		ids[i] = int32(500 + i)
	}
	tr, _ := Build(data, ids, Config{})
	res := firstK(t, tr, data[11], 1)
	if len(res) != 1 || res[0].ID != 511 || res[0].Dist != 0 {
		t.Errorf("got %v, want ID 511", res)
	}
}

func TestDuplicatePoints(t *testing.T) {
	data := make([][]float64, 60)
	for i := range data {
		data[i] = []float64{7, 7, 7}
	}
	tr, err := Build(data, nil, Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := tr.RangeSearch([]float64{7, 7, 7}, 0)
	if len(res) != 60 {
		t.Errorf("found %d duplicates, want 60", len(res))
	}
	// The iterator yields every duplicate once, all at distance 0.
	seen := make(map[int32]bool)
	for _, n := range firstK(t, tr, []float64{7, 7, 7}, 100) {
		if n.Dist != 0 || seen[n.ID] {
			t.Fatalf("iterator yielded %+v (seen before: %v)", n, seen[n.ID])
		}
		seen[n.ID] = true
	}
	if len(seen) != 60 {
		t.Errorf("iterator yielded %d duplicates, want 60", len(seen))
	}
}
