package pmtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

// brutePairs returns every unordered pair of data sorted by distance.
func brutePairs(data [][]float64) []PairCandidate {
	var out []PairCandidate
	for i := range data {
		for j := i + 1; j < len(data); j++ {
			out = append(out, PairCandidate{ID1: int32(i), ID2: int32(j), Dist: vec.L2(data[i], data[j])})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}

func randomPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(float32(rng.NormFloat64())) // held as handed over (see randData)
		}
		out[i] = p
	}
	return out
}

func TestPairEnumeratorFullOrder(t *testing.T) {
	for _, pivots := range []int{0, 3} {
		data := randomPoints(120, 6, 7)
		tree, err := Build(data, nil, Config{NumPivots: pivots, PivotSeed: 2, Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		want := brutePairs(data)
		en := NewPairEnumerator(tree)
		var got []PairCandidate
		for {
			c, ok := en.Next()
			if !ok {
				break
			}
			got = append(got, c)
		}
		if len(got) != len(want) {
			t.Fatalf("pivots=%d: enumerated %d pairs, want %d", pivots, len(got), len(want))
		}
		seen := make(map[[2]int32]bool)
		prev := math.Inf(-1)
		for i, c := range got {
			if c.ID1 >= c.ID2 {
				t.Fatalf("pair %d: ids not ordered: %+v", i, c)
			}
			key := [2]int32{c.ID1, c.ID2}
			if seen[key] {
				t.Fatalf("pair %d: duplicate %v", i, key)
			}
			seen[key] = true
			if c.Dist < prev {
				t.Fatalf("pair %d: distance %v < previous %v (not nondecreasing)", i, c.Dist, prev)
			}
			prev = c.Dist
			if math.Abs(c.Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("pair %d: distance %v, brute force %v", i, c.Dist, want[i].Dist)
			}
		}
	}
}

func TestPairEnumeratorCutoff(t *testing.T) {
	data := randomPoints(200, 5, 9)
	tree, err := Build(data, nil, Config{NumPivots: 4, PivotSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := brutePairs(data)
	cutoff := want[24].Dist // keep exactly the 25 closest pairs
	en := NewPairEnumerator(tree)
	en.SetCutoff(cutoff)
	count := 0
	for {
		c, ok := en.Next()
		if !ok {
			break
		}
		if c.Dist > cutoff+1e-12 {
			t.Fatalf("pair above cutoff returned: %v > %v", c.Dist, cutoff)
		}
		count++
	}
	if count != 25 {
		t.Fatalf("got %d pairs at or below cutoff, want 25", count)
	}
	// Exhausted enumerators stay exhausted.
	if _, ok := en.Next(); ok {
		t.Fatal("Next returned a pair after exhaustion")
	}
}

func TestPairEnumeratorShrinkingCutoff(t *testing.T) {
	data := randomPoints(150, 4, 11)
	tree, err := Build(data, nil, Config{NumPivots: 2, PivotSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := brutePairs(data)
	// Emulate a top-k consumer: after k pairs, cut off at the running
	// k-th distance. The first k pairs must match brute force exactly.
	const k = 10
	en := NewPairEnumerator(tree)
	var got []PairCandidate
	for {
		c, ok := en.Next()
		if !ok {
			break
		}
		got = append(got, c)
		if len(got) >= k {
			en.SetCutoff(got[k-1].Dist)
		}
	}
	if len(got) < k {
		t.Fatalf("got %d pairs, want at least %d", len(got), k)
	}
	for i := 0; i < k; i++ {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: %v, brute force %v", i, got[i].Dist, want[i].Dist)
		}
	}
	// A growing cutoff must be ignored.
	en2 := NewPairEnumerator(tree)
	en2.SetCutoff(want[0].Dist)
	en2.SetCutoff(want[len(want)-1].Dist * 2)
	n := 0
	for {
		if _, ok := en2.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("cutoff widened: enumerated %d pairs, want 1", n)
	}
}

func TestPairEnumeratorDuplicatesAndSmall(t *testing.T) {
	// Duplicate points: zero-distance pairs come out first.
	data := [][]float64{{1, 2}, {3, 4}, {1, 2}, {5, 6}, {3, 4}}
	tree, err := Build(data, nil, Config{NumPivots: 2, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	en := NewPairEnumerator(tree)
	first, ok := en.Next()
	if !ok || first.Dist != 0 {
		t.Fatalf("first pair should be a duplicate at distance 0, got %+v ok=%v", first, ok)
	}
	second, ok := en.Next()
	if !ok || second.Dist != 0 {
		t.Fatalf("second pair should be the other duplicate, got %+v ok=%v", second, ok)
	}

	// One point: nothing to enumerate.
	tree1, err := Build([][]float64{{1, 2, 3}}, nil, Config{NumPivots: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewPairEnumerator(tree1).Next(); ok {
		t.Fatal("single-point tree enumerated a pair")
	}

	// Empty tree: nothing to enumerate.
	empty, err := New(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewPairEnumerator(empty).Next(); ok {
		t.Fatal("empty tree enumerated a pair")
	}
}

func TestPairEnumeratorAfterInserts(t *testing.T) {
	// Build + Insert path: the enumeration must cover inserted points.
	data := randomPoints(80, 4, 13)
	tree, err := Build(data[:40], nil, Config{NumPivots: 3, PivotSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i < len(data); i++ {
		if err := tree.Insert(data[i], int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := brutePairs(data)
	en := NewPairEnumerator(tree)
	count := 0
	prev := math.Inf(-1)
	for {
		c, ok := en.Next()
		if !ok {
			break
		}
		if c.Dist < prev {
			t.Fatalf("pair %d out of order", count)
		}
		prev = c.Dist
		if math.Abs(c.Dist-want[count].Dist) > 1e-9 {
			t.Fatalf("pair %d: %v, brute force %v", count, c.Dist, want[count].Dist)
		}
		count++
	}
	if count != len(want) {
		t.Fatalf("enumerated %d pairs, want %d", count, len(want))
	}
}
