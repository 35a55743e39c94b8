package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// A forest's pair join is one self-join over the union of its trees.
// The Bipartite tests are its two-tree case: the pairs across two trees
// with independent pivot sets, which a one-tree join never reaches. The
// Forest tests split one point set over 1, 2, 3 and 5 trees, with tails
// and dead rows in them.

// forestKey names one pair of a forest as PairCandidate orders it.
type forestKey struct {
	t1, t2   int
	id1, id2 int32
}

func keyOf(c PairCandidate) forestKey { return forestKey{c.Tree1, c.Tree2, c.ID1, c.ID2} }

// bruteForestPairs returns every pair of the forest's live points —
// parts[s][id] is tree s's point id, live says which are live — ordered
// like a PairCandidate and sorted by (distance, key).
func bruteForestPairs(parts [][][]float64, live func(s int, id int32) bool) []PairCandidate {
	type pt struct {
		s  int
		id int32
	}
	var pts []pt
	for s, part := range parts {
		for id := range part {
			if live(s, int32(id)) {
				pts = append(pts, pt{s, int32(id)})
			}
		}
	}
	var out []PairCandidate
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			a, b := pts[i], pts[j]
			out = append(out, PairCandidate{ID1: a.id, ID2: b.id, Tree1: a.s, Tree2: b.s,
				Dist: vec.L2(parts[a.s][a.id], parts[b.s][b.id])})
		}
	}
	sortPairs(out)
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

// requireForestPairs checks an enumeration against the first len(want)
// pairs of brute force: the same pairs, each once, every one at its
// brute-force distance, in nondecreasing distance.
func requireForestPairs(tb testing.TB, label string, got, want []PairCandidate) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: enumerated %d pairs, brute force %d", label, len(got), len(want))
	}
	dist := make(map[forestKey]float64, len(want))
	for _, c := range want {
		dist[keyOf(c)] = c.Dist
	}
	seen := make(map[forestKey]bool, len(got))
	prev := math.Inf(-1)
	for i, c := range got {
		k := keyOf(c)
		if c.Tree1 > c.Tree2 || (c.Tree1 == c.Tree2 && c.ID1 >= c.ID2) {
			tb.Fatalf("%s: pair %d not ordered by (tree, id): %+v", label, i, c)
		}
		if seen[k] {
			tb.Fatalf("%s: pair %d: duplicate %+v", label, i, c)
		}
		seen[k] = true
		d, ok := dist[k]
		if !ok {
			tb.Fatalf("%s: pair %d: %+v is not among brute force's first %d", label, i, c, len(want))
		}
		if math.Abs(c.Dist-d) > 1e-9 || math.Abs(c.Dist-want[i].Dist) > 1e-9 {
			tb.Fatalf("%s: pair %d: %+v, brute force %v at this pair and %v at this rank", label, i, c, d, want[i].Dist)
		}
		if c.Dist < prev {
			tb.Fatalf("%s: pair %d: distance %v < previous %v", label, i, c.Dist, prev)
		}
		prev = c.Dist
	}
}

// shrinkingPrefix is how many of the sorted pairs want a drainShrinking
// from c0 with the given limit takes: pairs leave in order while each is
// within the cutoff the count so far has shrunk to.
func shrinkingPrefix(want []PairCandidate, c0 float64, limit int) int {
	n := 0
	for n < len(want) && want[n].Dist <= c0*(1-float64(n)/float64(limit)) {
		n++
	}
	return n
}

func allLive(int, int32) bool { return true }

func buildTwo(tb testing.TB, da, db [][]float64, ca, cb Config) (*Tree, *Tree) {
	ta, err := Build(da, nil, ca)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := Build(db, nil, cb)
	if err != nil {
		tb.Fatal(err)
	}
	return ta, tr
}

func TestBipartitePairEnumeratorFullOrder(t *testing.T) {
	// Different pivot counts on the two trees: cross-tree bounds must
	// not assume a shared pivot set.
	for _, pivots := range [][2]int{{0, 0}, {3, 3}, {3, 5}} {
		da := randomPoints(90, 6, 11)
		db := randomPoints(70, 6, 12)
		ta, tb := buildTwo(t, da, db,
			Config{NumPivots: pivots[0], PivotSeed: 2, Capacity: 8},
			Config{NumPivots: pivots[1], PivotSeed: 3, Capacity: 8})
		want := bruteForestPairs([][][]float64{da, db}, allLive)
		requireForestPairs(t, fmt.Sprintf("pivots=%v", pivots), collectPairs(NewPairEnumerator(ta, tb)), want)
	}
}

func TestBipartitePairEnumeratorCutoff(t *testing.T) {
	da := randomPoints(120, 5, 21)
	db := randomPoints(100, 5, 22)
	ta, tb := buildTwo(t, da, db,
		Config{NumPivots: 3, PivotSeed: 2, Capacity: 8},
		Config{NumPivots: 3, PivotSeed: 5, Capacity: 8})
	want := bruteForestPairs([][][]float64{da, db}, allLive)
	cutoff := want[len(want)/10].Dist
	en := NewPairEnumerator(ta, tb)
	en.SetCutoff(cutoff)
	n := 0
	for n < len(want) && want[n].Dist <= cutoff {
		n++
	}
	requireForestPairs(t, fmt.Sprintf("cutoff %v", cutoff), collectPairs(en), want[:n])
	// Re-raising the cutoff is ignored and the enumeration stays done.
	en.SetCutoff(2 * cutoff)
	if _, ok := en.Next(); ok {
		t.Fatal("enumeration resumed after finishing")
	}
}

func TestBipartitePairEnumeratorShrinkingCutoff(t *testing.T) {
	da := randomPoints(80, 4, 31)
	db := randomPoints(80, 4, 32)
	ta, tb := buildTwo(t, da, db,
		Config{NumPivots: 2, PivotSeed: 2, Capacity: 8},
		Config{NumPivots: 2, PivotSeed: 9, Capacity: 8})
	want := bruteForestPairs([][][]float64{da, db}, allLive)
	// Emulate a top-k driver: keep the 25 closest pairs, shrinking the
	// cutoff to the running 25th distance.
	const k = 25
	en := NewPairEnumerator(ta, tb)
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
	requireForestPairs(t, "top 25", got[:k], want[:k])
}

func TestBipartitePairEnumeratorSmallAndEmpty(t *testing.T) {
	da := randomPoints(1, 3, 41)
	db := randomPoints(1, 3, 42)
	ta, tb := buildTwo(t, da, db, Config{NumPivots: 0, Capacity: 4}, Config{NumPivots: 0, Capacity: 4})
	// One point per tree: exactly one cross pair (a join of either tree
	// alone would enumerate nothing).
	got := collectPairs(NewPairEnumerator(ta, tb))
	want := PairCandidate{ID1: 0, ID2: 0, Tree1: 0, Tree2: 1, Dist: vec.L2(da[0], db[0])}
	if len(got) != 1 || keyOf(got[0]) != keyOf(want) || math.Abs(got[0].Dist-want.Dist) > 1e-12 {
		t.Fatalf("got %+v, want [%+v]", got, want)
	}

	// A tree whose only point is deleted adds nothing, wherever it stands.
	empty, err := Build(randomPoints(1, 3, 43), nil, Config{NumPivots: 0, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Delete(0); err != nil {
		t.Fatal(err)
	}
	for _, forest := range [][]*Tree{{ta, empty}, {empty, tb}, {empty}, {}} {
		if got := collectPairs(NewPairEnumerator(forest...)); len(got) != 0 {
			t.Fatalf("forest of %d trees with one live point: got %+v", len(forest), got)
		}
	}
	got = collectPairs(NewPairEnumerator(ta, empty, tb))
	if len(got) != 1 || got[0].Tree1 != 0 || got[0].Tree2 != 2 {
		t.Fatalf("an empty tree between two points: got %+v", got)
	}
}

func TestBipartitePairEnumeratorAfterDeletes(t *testing.T) {
	da := randomPoints(60, 5, 51)
	db := randomPoints(60, 5, 52)
	ta, tb := buildTwo(t, da, db,
		Config{NumPivots: 3, PivotSeed: 2, Capacity: 6},
		Config{NumPivots: 3, PivotSeed: 7, Capacity: 6})
	dead := [2]map[int32]bool{{}, {}}
	for i := 0; i < 20; i++ {
		if err := ta.Delete(int32(i * 2)); err != nil {
			t.Fatal(err)
		}
		dead[0][int32(i*2)] = true
		if err := tb.Delete(int32(i * 3 % 60)); err != nil {
			t.Fatal(err)
		}
		dead[1][int32(i*3%60)] = true
	}
	want := bruteForestPairs([][][]float64{da, db}, func(s int, id int32) bool { return !dead[s][id] })
	requireForestPairs(t, "after deletes", collectPairs(NewPairEnumerator(ta, tb)), want)
}

// randomForest splits n random points over trees at random. Each tree
// bulk loads a random share of its points (none: a tree grown from New)
// and inserts the rest into its tail; then about a fifth of all points,
// leaves and tails alike, are deleted. It returns the trees, every
// tree's points by local id, and which are live.
func randomForest(tb testing.TB, rng *rand.Rand, trees, n, dim int) ([]*Tree, [][][]float64, func(int, int32) bool) {
	parts := make([][][]float64, trees)
	for i := 0; i < n; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		s := rng.Intn(trees)
		parts[s] = append(parts[s], p)
	}
	forest := make([]*Tree, trees)
	dead := make([]map[int32]bool, trees)
	for s, part := range parts {
		cfg := Config{NumPivots: rng.Intn(4), PivotSeed: int64(s), Capacity: 4 + rng.Intn(8)}
		frozen := len(part) * rng.Intn(3) / 2 // none, half or all of them
		var err error
		if frozen == 0 {
			forest[s], err = New(dim, cfg)
		} else {
			forest[s], err = Build(part[:frozen], nil, cfg)
		}
		if err != nil {
			tb.Fatal(err)
		}
		for id := frozen; id < len(part); id++ {
			if err := forest[s].Insert(part[id], int32(id)); err != nil {
				tb.Fatal(err)
			}
		}
		dead[s] = map[int32]bool{}
		for id := range part {
			if rng.Intn(5) == 0 {
				if err := forest[s].Delete(int32(id)); err != nil {
					tb.Fatal(err)
				}
				dead[s][int32(id)] = true
			}
		}
	}
	return forest, parts, func(s int, id int32) bool { return !dead[s][id] }
}

// TestForestPairEnumerator joins forests of 1, 2, 3 and 5 trees over
// one random partition of the rows each: every live pair of the union
// must come out exactly once, in nondecreasing distance, equal to brute
// force — drained whole and under a cutoff that shrinks as pairs leave.
// Pairs of two tail rows in two trees are the ones the tail seeding
// could pair twice or not at all.
func TestForestPairEnumerator(t *testing.T) {
	for _, trees := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(100*trees + trial)))
			forest, parts, live := randomForest(t, rng, trees, 160, 2+trial)
			tails := 0
			for _, tr := range forest {
				if tr.Tail() > 0 {
					tails++
				}
			}
			want := bruteForestPairs(parts, live)
			label := fmt.Sprintf("%d trees (%d with a tail), trial %d", trees, tails, trial)
			requireForestPairs(t, label, collectPairs(NewPairEnumerator(forest...)), want)

			c0 := want[len(want)/20].Dist
			got := drainShrinking(NewPairEnumerator(forest...), c0, 300)
			requireForestPairs(t, fmt.Sprintf("%s from cutoff %v", label, c0), got, want[:shrinkingPrefix(want, c0, 300)])
		}
	}
}
