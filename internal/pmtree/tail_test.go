package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/store"
)

// This file is the oracle for "bulk load is the only builder": a tree
// frozen at its bulk load, with inserts in its tail and deletes marked
// dead, must answer every query exactly like a fresh bulk load over the
// same live points — the same ids with bit-identical distances.

// churnOracle is the live set a churned tree must answer from.
type churnOracle struct {
	rng  *rand.Rand
	dim  int
	live map[int32][]float64
	next int32
}

func (o *churnOracle) point() []float64 {
	p := make([]float64, o.dim)
	for j := range p {
		p[j] = o.rng.NormFloat64()
	}
	return p
}

func (o *churnOracle) ids() []int32 {
	ids := make([]int32, 0, len(o.live))
	for id := range o.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (o *churnOracle) insert(tb testing.TB, tr *Tree) {
	p := o.point()
	if err := tr.Insert(p, o.next); err != nil {
		tb.Fatal(err)
	}
	o.live[o.next] = p
	o.next++
}

func (o *churnOracle) remove(tb testing.TB, tr *Tree) {
	ids := o.ids()
	if len(ids) == 0 {
		return
	}
	id := ids[o.rng.Intn(len(ids))]
	if err := tr.Delete(id); err != nil {
		tb.Fatal(err)
	}
	delete(o.live, id)
}

// rebuild bulk loads a fresh tree over the oracle's live points, nil
// when there are none.
func (o *churnOracle) rebuild(tb testing.TB, cfg Config) *Tree {
	ids := o.ids()
	if len(ids) == 0 {
		return nil
	}
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = o.live[id]
	}
	s, err := store.FromRows(rows)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := BuildFromStore(s, ids, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// newChurned bulk loads base points (an empty tree from New when base
// is 0) and returns the tree with its oracle.
func newChurned(tb testing.TB, rng *rand.Rand, dim, base int, cfg Config) (*Tree, *churnOracle) {
	o := &churnOracle{rng: rng, dim: dim, live: map[int32][]float64{}}
	if base == 0 {
		tr, err := New(dim, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return tr, o
	}
	rows := make([][]float64, base)
	for i := range rows {
		rows[i] = o.point()
		o.live[int32(i)] = rows[i]
	}
	o.next = int32(base)
	tr, err := Build(rows, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, o
}

func sortPairs(ps []PairCandidate) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.ID1 != b.ID1 {
			return a.ID1 < b.ID1
		}
		return a.ID2 < b.ID2
	})
}

// drainShrinking pulls an enumerator dry under a cutoff that starts at
// c0 (set before the first Next, as the closest-pair driver does) and
// shrinks linearly with the number of pairs pulled, reaching 0 after
// limit pairs. The cutoffs depend on the count alone, so two
// enumerators over the same pair population see the same ones.
func drainShrinking(en *PairEnumerator, c0 float64, limit int) []PairCandidate {
	var out []PairCandidate
	en.SetCutoff(c0)
	for {
		c, ok := en.Next()
		if !ok {
			sortPairs(out)
			return out
		}
		out = append(out, c)
		if !math.IsInf(c0, 1) {
			en.SetCutoff(c0 * (1 - float64(len(out))/float64(limit)))
		}
	}
}

func requireSamePairs(tb testing.TB, label string, got, want []PairCandidate) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d pairs, the rebuilt tree yields %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID1 != want[i].ID1 || got[i].ID2 != want[i].ID2 ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			tb.Fatalf("%s: pair %d = %+v, the rebuilt tree yields %+v", label, i, got[i], want[i])
		}
	}
}

// requireAnswersLikeRebuilt compares tr — frozen leaves, tail, dead
// marks — with ref, a bulk load over the same live points, on every
// query path. other/otherRef are a second such pair for the bipartite
// join.
func requireAnswersLikeRebuilt(t *testing.T, label string, o *churnOracle, tr, ref, other, otherRef *Tree) {
	t.Helper()
	checkLayout(t, tr)
	if ref == nil {
		// Nothing is live: every query comes back empty.
		if tr.Len() != 0 {
			t.Fatalf("%s: Len %d with no live point", label, tr.Len())
		}
		var e RangeEnumerator
		if err := e.Reset(tr, o.point()); err != nil {
			t.Fatal(err)
		}
		e.Expand(math.Inf(1), func(id int32, d float64) { t.Fatalf("%s: emitted %d from an empty live set", label, id) })
		if _, ok := tr.NewPairEnumerator().Next(); ok {
			t.Fatalf("%s: a pair from an empty live set", label)
		}
		if _, ok := tr.NewBipartitePairEnumerator(other).Next(); ok {
			t.Fatalf("%s: a cross pair from an empty live set", label)
		}
		return
	}
	if tr.Len() != ref.Len() {
		t.Fatalf("%s: Len %d, the rebuilt tree has %d", label, tr.Len(), ref.Len())
	}
	ids := o.ids()
	scale := math.Sqrt(float64(o.dim))
	for qi := 0; qi < 3; qi++ {
		q := o.live[ids[o.rng.Intn(len(ids))]]
		if qi == 1 {
			q = o.point()
		}
		// A nondecreasing radius sequence with rounds on both sides of
		// both trees' switch radii, ending past every point.
		var radii []float64
		for _, sr := range []float64{tr.scanRadius, ref.scanRadius} {
			if sr == 0 {
				sr = 0.2 * scale
			}
			for i := 0; i < 3; i++ {
				radii = append(radii, sr*2.5*o.rng.Float64())
			}
		}
		sort.Float64s(radii)
		radii = append(radii, 1e6)
		for _, treeOnly := range []bool{false, true} {
			a, b := RangeEnumerator{treeOnly: treeOnly}, RangeEnumerator{treeOnly: treeOnly}
			if err := a.Reset(tr, q); err != nil {
				t.Fatal(err)
			}
			if err := b.Reset(ref, q); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, r := range radii {
				var got, want []Result
				a.Expand(r, func(id int32, d float64) { got = append(got, Result{id, d}) })
				b.Expand(r, func(id int32, d float64) { want = append(want, Result{id, d}) })
				sortResults(got)
				sortResults(want)
				requireSameBits(t, fmt.Sprintf("%s query %d treeOnly=%v Expand(%v)", label, qi, treeOnly, r), got, want)
				total += len(got)
			}
			if total != len(ids) {
				t.Fatalf("%s query %d treeOnly=%v: %d of %d live points emitted by radius 1e6", label, qi, treeOnly, total, len(ids))
			}
		}
		r := scale * o.rng.Float64()
		got, err := tr.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("%s query %d RangeSearch(%v)", label, qi, r), got, want)
		requireSameBits(t, fmt.Sprintf("%s query %d RangeSearch(%v) against the reference traversal", label, qi, r), got, refRangeSearch(tr, q, r))
	}

	// Pair streams: a cutoff around the typical pair distance shrinking
	// to nothing, and no cutoff at all while that is affordable.
	cutoffs := []float64{scale * (0.5 + o.rng.Float64())}
	if len(ids) <= 130 {
		cutoffs = append(cutoffs, math.Inf(1))
	}
	for _, c0 := range cutoffs {
		requireSamePairs(t, fmt.Sprintf("%s self-join from cutoff %v", label, c0),
			drainShrinking(tr.NewPairEnumerator(), c0, 400),
			drainShrinking(ref.NewPairEnumerator(), c0, 400))
		requireSamePairs(t, fmt.Sprintf("%s join with the other tree from cutoff %v", label, c0),
			drainShrinking(tr.NewBipartitePairEnumerator(other), c0, 400),
			drainShrinking(ref.NewBipartitePairEnumerator(otherRef), c0, 400))
		requireSamePairs(t, fmt.Sprintf("%s the other tree's join with it from cutoff %v", label, c0),
			drainShrinking(other.NewBipartitePairEnumerator(tr), c0, 400),
			drainShrinking(otherRef.NewBipartitePairEnumerator(ref), c0, 400))
	}
}

// TestTailAnswersLikeRebuilt runs seeded churn schedules — inserts
// only (the tail grows from nothing past the 30% of the rows at which
// the index layer would rebuild), deletes only, both mixed, a tree
// grown from New (all tail), and a bulk load whose every point is
// deleted before the inserts — and after every few operations compares
// the tree with a bulk load over its live points.
func TestTailAnswersLikeRebuilt(t *testing.T) {
	schedules := []struct {
		name string
		base int
		ops  int
		op   func(step int, rng *rand.Rand) (insert bool)
	}{
		{"insert-only", 150, 90, func(int, *rand.Rand) bool { return true }},
		{"delete-only", 150, 120, func(int, *rand.Rand) bool { return false }},
		{"mixed", 150, 150, func(_ int, rng *rand.Rand) bool { return rng.Intn(2) == 0 }},
		{"all-tail", 0, 120, func(step int, rng *rand.Rand) bool { return step < 20 || rng.Intn(4) > 0 }},
		{"base-deleted", 40, 100, func(step int, _ *rand.Rand) bool { return step >= 40 }},
	}
	for _, dim := range []int{2, 15} {
		for _, pivots := range []int{0, 5} {
			cfg := Config{NumPivots: pivots, Capacity: 8, PivotSeed: int64(dim + pivots)}
			// The other side of the bipartite joins: leaves, a tail, dead
			// rows in both.
			orng := rand.New(rand.NewSource(int64(100*dim + pivots)))
			other, oo := newChurned(t, orng, dim, 60, Config{NumPivots: pivots, Capacity: 8, PivotSeed: 99})
			for i := 0; i < 40; i++ {
				if i%4 == 3 {
					oo.remove(t, other)
				} else {
					oo.insert(t, other)
				}
			}
			otherRef := oo.rebuild(t, Config{NumPivots: pivots, Capacity: 8, PivotSeed: 99})

			for si, sc := range schedules {
				rng := rand.New(rand.NewSource(int64(1000*dim + 10*pivots + si)))
				tr, o := newChurned(t, rng, dim, sc.base, cfg)
				for step := 0; step <= sc.ops; step++ {
					if step%15 == 0 || step == sc.ops {
						label := fmt.Sprintf("m=%d pivots=%d %s step %d", dim, pivots, sc.name, step)
						requireAnswersLikeRebuilt(t, label, o, tr, o.rebuild(t, cfg), other, otherRef)
					}
					if step == sc.ops {
						break
					}
					if sc.op(step, rng) {
						o.insert(t, tr)
					} else {
						o.remove(t, tr)
					}
				}
				switch sc.name {
				case "insert-only":
					if f := float64(tr.Tail()) / float64(tr.Rows()); f < 0.3 {
						t.Fatalf("insert-only schedule ended with a tail of %.2f of the rows, want past 0.3", f)
					}
				case "all-tail":
					if tr.Tail() != tr.Rows() || tr.scanRadius != 0 {
						t.Fatalf("a tree grown from New has %d of %d rows in its tail, switch radius %v", tr.Tail(), tr.Rows(), tr.scanRadius)
					}
				case "base-deleted":
					if lay := checkLayout(t, tr); lay.dead != lay.entries || tr.Len() != tr.Tail() {
						t.Fatalf("base-deleted schedule: layout %+v, %d live points for %d tail rows", lay, tr.Len(), tr.Tail())
					}
				}
			}
		}
	}
}
