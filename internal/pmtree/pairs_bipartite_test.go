package pmtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/vec"
)

// bruteCrossPairs returns every (i, j) pair with i from a and j from b,
// sorted by distance.
func bruteCrossPairs(a, b [][]float64) []PairCandidate {
	var out []PairCandidate
	for i := range a {
		for j := range b {
			out = append(out, PairCandidate{ID1: int32(i), ID2: int32(j), Dist: vec.L2(a[i], b[j])})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}

func collectPairs(en *PairEnumerator) []PairCandidate {
	var out []PairCandidate
	for {
		c, ok := en.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

func TestBipartitePairEnumeratorFullOrder(t *testing.T) {
	// Different pivot counts on the two sides: cross-tree bounds must
	// not assume a shared pivot set.
	for _, pivots := range [][2]int{{0, 0}, {3, 3}, {3, 5}} {
		da := randomPoints(90, 6, 11)
		db := randomPoints(70, 6, 12)
		ta, err := Build(da, nil, Config{NumPivots: pivots[0], PivotSeed: 2, Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := Build(db, nil, Config{NumPivots: pivots[1], PivotSeed: 3, Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCrossPairs(da, db)
		got := collectPairs(ta.NewBipartitePairEnumerator(tb))
		if len(got) != len(want) {
			t.Fatalf("pivots=%v: enumerated %d pairs, want %d", pivots, len(got), len(want))
		}
		seen := make(map[[2]int32]bool)
		prev := math.Inf(-1)
		for i, c := range got {
			if c.ID1 < 0 || int(c.ID1) >= len(da) || c.ID2 < 0 || int(c.ID2) >= len(db) {
				t.Fatalf("pair %d: ids out of side ranges: %+v", i, c)
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

func TestBipartitePairEnumeratorCutoff(t *testing.T) {
	da := randomPoints(120, 5, 21)
	db := randomPoints(100, 5, 22)
	ta, err := Build(da, nil, Config{NumPivots: 3, PivotSeed: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(db, nil, Config{NumPivots: 3, PivotSeed: 5, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCrossPairs(da, db)
	cutoff := want[len(want)/10].Dist
	en := ta.NewBipartitePairEnumerator(tb)
	en.SetCutoff(cutoff)
	got := collectPairs(en)
	wantN := 0
	for _, c := range want {
		if c.Dist <= cutoff {
			wantN++
		}
	}
	if len(got) != wantN {
		t.Fatalf("cutoff %v: got %d pairs, want %d", cutoff, len(got), wantN)
	}
	for i, c := range got {
		if c.Dist > cutoff {
			t.Fatalf("pair %d: distance %v above cutoff %v", i, c.Dist, cutoff)
		}
	}
	// Re-raising the cutoff is ignored and the enumeration stays done.
	en.SetCutoff(2 * cutoff)
	if _, ok := en.Next(); ok {
		t.Fatal("enumeration resumed after finishing")
	}
}

func TestBipartitePairEnumeratorShrinkingCutoff(t *testing.T) {
	da := randomPoints(80, 4, 31)
	db := randomPoints(80, 4, 32)
	ta, err := Build(da, nil, Config{NumPivots: 2, PivotSeed: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(db, nil, Config{NumPivots: 2, PivotSeed: 9, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCrossPairs(da, db)
	// Emulate a top-k driver: keep the 25 closest pairs, shrinking the
	// cutoff to the running 25th distance.
	const k = 25
	en := ta.NewBipartitePairEnumerator(tb)
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
			t.Fatalf("pair %d: distance %v, brute force %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestBipartitePairEnumeratorSmallAndEmpty(t *testing.T) {
	da := randomPoints(1, 3, 41)
	db := randomPoints(1, 3, 42)
	ta, err := Build(da, nil, Config{NumPivots: 0, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(db, nil, Config{NumPivots: 0, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One point per side: exactly one cross pair (a self-join of either
	// tree would enumerate nothing).
	got := collectPairs(ta.NewBipartitePairEnumerator(tb))
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1", len(got))
	}
	if got[0].ID1 != 0 || got[0].ID2 != 0 {
		t.Fatalf("got ids %d,%d, want 0,0", got[0].ID1, got[0].ID2)
	}
	if want := vec.L2(da[0], db[0]); math.Abs(got[0].Dist-want) > 1e-12 {
		t.Fatalf("got distance %v, want %v", got[0].Dist, want)
	}

	// An empty side (only point deleted) enumerates nothing.
	ep := randomPoints(1, 3, 43)
	empty, err := Build(ep, nil, Config{NumPivots: 0, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Delete(0); err != nil {
		t.Fatal(err)
	}
	if got := collectPairs(ta.NewBipartitePairEnumerator(empty)); len(got) != 0 {
		t.Fatalf("empty side: got %d pairs, want 0", len(got))
	}
	if got := collectPairs(empty.NewBipartitePairEnumerator(tb)); len(got) != 0 {
		t.Fatalf("empty side: got %d pairs, want 0", len(got))
	}
}

func TestBipartitePairEnumeratorAfterDeletes(t *testing.T) {
	da := randomPoints(60, 5, 51)
	db := randomPoints(60, 5, 52)
	ta, err := Build(da, nil, Config{NumPivots: 3, PivotSeed: 2, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(db, nil, Config{NumPivots: 3, PivotSeed: 7, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	liveA := map[int32]bool{}
	liveB := map[int32]bool{}
	for i := range da {
		liveA[int32(i)] = true
	}
	for i := range db {
		liveB[int32(i)] = true
	}
	for i := 0; i < 20; i++ {
		if err := ta.Delete(int32(i * 2)); err != nil {
			t.Fatal(err)
		}
		delete(liveA, int32(i*2))
		if err := tb.Delete(int32(i * 3 % 60)); err != nil {
			t.Fatal(err)
		}
		delete(liveB, int32(i*3%60))
	}
	var wantPairs []PairCandidate
	for i := range da {
		if !liveA[int32(i)] {
			continue
		}
		for j := range db {
			if !liveB[int32(j)] {
				continue
			}
			wantPairs = append(wantPairs, PairCandidate{ID1: int32(i), ID2: int32(j), Dist: vec.L2(da[i], db[j])})
		}
	}
	sort.Slice(wantPairs, func(i, j int) bool { return wantPairs[i].Dist < wantPairs[j].Dist })
	got := collectPairs(ta.NewBipartitePairEnumerator(tb))
	if len(got) != len(wantPairs) {
		t.Fatalf("got %d pairs, want %d", len(got), len(wantPairs))
	}
	for i, c := range got {
		if !liveA[c.ID1] || !liveB[c.ID2] {
			t.Fatalf("pair %d references a deleted id: %+v", i, c)
		}
		if math.Abs(c.Dist-wantPairs[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: distance %v, brute force %v", i, c.Dist, wantPairs[i].Dist)
		}
	}
}
