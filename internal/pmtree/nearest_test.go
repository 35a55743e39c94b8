package pmtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
)

// nearestTree is one tree of TestNearestIsSortedPrefix: 600–1800 points
// in a handful of clusters, a tenth of them copies of three points (so
// whole runs of candidates sit at one distance and only the id orders
// them), bulk loaded under the given number of pivots, then worn: 5–30%
// of the rows appended to the tail, a twentieth deleted from under the
// leaves and out of the tail.
func nearestTree(tb testing.TB, rng *rand.Rand, pivots int) (*Tree, [][]float64) {
	tb.Helper()
	n, dim := 600+rng.Intn(1200), 4+rng.Intn(8)
	centers := randData(1+rng.Intn(5), dim, rng.Int63())
	point := func() []float64 {
		p := slices.Clone(centers[rng.Intn(len(centers))])
		for j := range p {
			p[j] = float64(float32(p[j] + 0.3*rng.NormFloat64())) // held as handed over (see randData)
		}
		return p
	}
	data := make([][]float64, n)
	for i := range data {
		if data[i] = point(); i >= 3 && rng.Intn(10) == 0 {
			data[i] = data[rng.Intn(3)]
		}
	}
	tail := int(float64(n) * (0.05 + 0.25*rng.Float64()))
	cfg := Config{NumPivots: pivots, Capacity: []int{0, 8, 16}[rng.Intn(3)], PivotSeed: rng.Int63()}
	tr, err := Build(data[:n-tail], nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for id := n - tail; id < n; id++ {
		if err := tr.Insert(data[id], int32(id)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n/20; i++ {
		if id := 3 + rng.Intn(n-3); data[id] != nil { // the copied points stay: queries start from them
			if err := tr.Delete(int32(id)); err != nil {
				tb.Fatal(err)
			}
			data[id] = nil
		}
	}
	if tr.ScanRadius() <= 0 {
		tb.Fatalf("tree of %d points has switch radius %v: the schedules have no unit", n, tr.ScanRadius())
	}
	return tr, data
}

// TestNearestIsSortedPrefix is the contract k-NN verification rests on:
// round for round, Nearest returns exactly the first limit admitted
// entries of what a twin enumerator's Expand emits at the same radius,
// sorted by (distance, id) — as a set, its buckets in ascending distance
// — and spends the rest; inRadius is the twin's emitted count and the
// two have paid the same distance computations. Half the queries run on
// the traversal (ResetTree, as SearchBall does), half on the flat pass;
// the radius schedules, in units of the switch radius, have a round that
// is no wider than one float and one that is infinitely wide; the limits
// sit on, beside and inside the admitted count; the filter admits two
// ids in three.
func TestNearestIsSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	twoInThree := func(id int32) bool { return id%3 != 0 }
	// limitOf picks a round's limit given how many admitted points the
	// round holds.
	limits := []struct {
		name    string
		limitOf func(admitted int) int
	}{
		{"0", func(int) int { return 0 }},
		{"1", func(int) int { return 1 }},
		{"a-1", func(a int) int { return a - 1 }},
		{"a", func(a int) int { return a }},
		{"a+1", func(a int) int { return a + 1 }},
		{"max", func(int) int { return math.MaxInt }},
		{"inside", func(a int) int { return rng.Intn(a + 1) }},
	}
	cutInTie := 0
	for trial := 0; trial < 12; trial++ {
		tr, data := nearestTree(t, rng, []int{0, 3, 5}[trial%3])
		sr := tr.ScanRadius()
		for qi := 0; qi < 4; qi++ {
			q := data[rng.Intn(3)] // a planted duplicate: a long run at distance 0
			if qi%2 == 1 {
				q = randData(1, tr.Dim(), rng.Int63())[0]
			}
			schedule := []float64{-1, 0, 0.5 * sr, 0.9 * sr, math.Nextafter(0.9*sr, 2*sr), 1.2 * sr, 2 * sr, 5 * sr, math.Inf(1)}
			if qi == 3 {
				schedule = schedule[5:] // starts past the switch
			}
			for _, admit := range []func(int32) bool{nil, twoInThree} {
				for _, lim := range limits {
					var sw, twin RangeEnumerator
					resetSw, resetTwin := sw.Reset, twin.Reset
					if qi < 2 {
						resetSw, resetTwin = sw.ResetTree, twin.ResetTree
					}
					if err := resetSw(tr, q); err != nil {
						t.Fatal(err)
					}
					if err := resetTwin(tr, q); err != nil {
						t.Fatal(err)
					}
					var ids []int32
					for _, r := range schedule {
						label := fmt.Sprintf("trial %d query %d filter %v limit %s radius %v", trial, qi, admit != nil, lim.name, r)
						emitted := 0
						var want []metrics.Neighbor
						twin.Expand(r, func(id int32, d float64) {
							emitted++
							if admit == nil || admit(id) {
								want = append(want, metrics.Neighbor{ID: id, Dist: d})
							}
						})
						sortResults(want)
						limit := lim.limitOf(len(want))
						var inRadius int
						ids, inRadius = sw.Nearest(r, limit, admit, ids)
						if inRadius != emitted || sw.DistComps() != twin.DistComps() {
							t.Fatalf("%s: inRadius %d after %d evaluations, twin emitted %d after %d",
								label, inRadius, sw.DistComps(), emitted, twin.DistComps())
						}
						if take := max(0, min(limit, len(want))); take < len(want) {
							if take > 0 && want[take-1].Dist == want[take].Dist {
								cutInTie++
							}
							want = want[:take]
						}
						if len(ids) != len(want) {
							t.Fatalf("%s: %d ids, want %d", label, len(ids), len(want))
						}
						distOf := make(map[int32]float64, len(want))
						for _, w := range want {
							distOf[w.ID] = w.Dist
						}
						last := int32(0)
						for i, id := range ids {
							d, ok := distOf[id]
							if !ok {
								t.Fatalf("%s: id %d at %d is not among the first %d of the sorted delta (or came twice)", label, id, i, len(want))
							}
							delete(distOf, id)
							if b := bucketOf(d, sw.base, sw.scale); b < last {
								t.Fatalf("%s: id %d at %d, distance %v, is of bucket %d after bucket %d", label, id, i, d, b, last)
							} else {
								last = b
							}
						}
					}
				}
			}
		}
	}
	if cutInTie == 0 {
		t.Fatal("no cut fell between equal distances; the table is not exercising them")
	}
}
