package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vec"
)

func randPoints(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 5
		}
		pts[i] = p
	}
	return pts
}

func TestNewProjectionValidation(t *testing.T) {
	if _, err := NewProjection(0, 4, 1); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewProjection(4, 0, 1); err == nil {
		t.Error("d=0 should fail")
	}
	p, err := NewProjection(3, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != 3 || p.D() != 7 {
		t.Errorf("M,D = %d,%d", p.M(), p.D())
	}
}

func TestProjectionDeterministic(t *testing.T) {
	p1, _ := NewProjection(5, 10, 42)
	p2, _ := NewProjection(5, 10, 42)
	o := randPoints(1, 10, 3)[0]
	a, b := p1.Project(o), p2.Project(o)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical projections")
		}
	}
	p3, _ := NewProjection(5, 10, 43)
	c := p3.Project(o)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different projections")
	}
}

func TestProjectionLinear(t *testing.T) {
	p, _ := NewProjection(4, 6, 1)
	pts := randPoints(2, 6, 2)
	x, y := pts[0], pts[1]
	sum := make([]float64, 6)
	for i := range sum {
		sum[i] = x[i] + y[i]
	}
	px, py, psum := p.Project(x), p.Project(y), p.Project(sum)
	for i := range psum {
		if math.Abs(psum[i]-(px[i]+py[i])) > 1e-9 {
			t.Fatalf("projection not linear at %d", i)
		}
	}
}

func TestProjectDimMismatchPanics(t *testing.T) {
	p, _ := NewProjection(2, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	p.Project([]float64{1, 2})
}

func TestProjectAllMatchesProject(t *testing.T) {
	p, _ := NewProjection(5, 8, 9)
	pts := randPoints(20, 8, 4)
	all := p.ProjectAll(pts)
	if len(all) != 20 {
		t.Fatalf("len=%d", len(all))
	}
	for i, o := range pts {
		want := p.Project(o)
		for j := range want {
			if all[i][j] != want[j] {
				t.Fatalf("ProjectAll[%d] differs", i)
			}
		}
	}
}

// Lemma 1: for points at original distance r, the squared projected
// distance over r² follows χ²(m), where the probability space is the
// random draw of the projection. Verify the mean (= m) and that the
// empirical CDF at the median matches ~0.5 by redrawing the projection
// each trial.
func TestProjectedDistanceChiSquared(t *testing.T) {
	const m, d, trials = 15, 32, 4000
	rng := rand.New(rand.NewSource(5))
	var sumRatio float64
	med, _ := stats.ChiSquared{K: m}.Quantile(0.5)
	below := 0
	for i := 0; i < trials; i++ {
		p, _ := NewProjection(m, d, int64(i)+1)
		a := make([]float64, d)
		b := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = a[j] + rng.NormFloat64()*0.3
		}
		r := vec.L2(a, b)
		rp := vec.L2(p.Project(a), p.Project(b))
		ratio := rp * rp / (r * r)
		sumRatio += ratio
		if ratio <= med {
			below++
		}
	}
	meanRatio := sumRatio / trials
	if math.Abs(meanRatio-m) > 0.08*m {
		t.Errorf("E[r'^2/r^2] = %v, want ~%d", meanRatio, m)
	}
	frac := float64(below) / trials
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("fraction below χ² median = %v, want ~0.5", frac)
	}
}

// Lemma 2: r' / sqrt(m) is an unbiased estimator of r... up to the
// small-sample bias of sqrt; check the relative error is small and
// shrinks as m grows.
func TestEstimatorNearUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d, trials = 24, 3000
	for _, m := range []int{5, 15, 25} {
		var sumEst, sumTrue float64
		for i := 0; i < trials; i++ {
			p, _ := NewProjection(m, d, int64(1000*m+i))
			a := make([]float64, d)
			b := make([]float64, d)
			for j := range a {
				a[j] = rng.NormFloat64()
				b[j] = a[j] + rng.NormFloat64()
			}
			r := vec.L2(a, b)
			rp := vec.L2(p.Project(a), p.Project(b))
			sumEst += rp / math.Sqrt(float64(m))
			sumTrue += r
		}
		rel := math.Abs(sumEst-sumTrue) / sumTrue
		// sqrt-Jensen bias is ~1/(4m); allow generous sampling slack.
		if rel > 0.5/float64(m)+0.03 {
			t.Errorf("m=%d: relative estimator bias %v too large", m, rel)
		}
	}
}

// Lemma 3 coverage: for random pairs at original distance r, the
// fraction with projected distance r′ < r·√(χ²_{1−α}(m)) is ≈ α, and
// the fraction with r′ > r·√(χ²_α(m)) is ≈ α (the tunable confidence
// interval PM-LSH's radius multiplier t is built from).
func TestLemma3ConfidenceInterval(t *testing.T) {
	const m, d, trials = 15, 24, 5000
	rng := rand.New(rand.NewSource(21))
	for _, alpha := range []float64{0.1, 1 / math.E, 0.3} {
		lowQ, err := stats.ChiSquared{K: m}.UpperQuantile(1 - alpha)
		if err != nil {
			t.Fatal(err)
		}
		highQ, err := stats.ChiSquared{K: m}.UpperQuantile(alpha)
		if err != nil {
			t.Fatal(err)
		}
		below, above := 0, 0
		for i := 0; i < trials; i++ {
			p, _ := NewProjection(m, d, int64(10000+i))
			a := make([]float64, d)
			b := make([]float64, d)
			for j := range a {
				a[j] = rng.NormFloat64()
				b[j] = a[j] + rng.NormFloat64()*0.5
			}
			r := vec.L2(a, b)
			rp := vec.L2(p.Project(a), p.Project(b))
			if rp < r*math.Sqrt(lowQ) {
				below++
			}
			if rp > r*math.Sqrt(highQ) {
				above++
			}
		}
		gotBelow := float64(below) / trials
		gotAbove := float64(above) / trials
		if math.Abs(gotBelow-alpha) > 0.025 {
			t.Errorf("α=%v: P1 coverage %v", alpha, gotBelow)
		}
		if math.Abs(gotAbove-alpha) > 0.025 {
			t.Errorf("α=%v: P2 coverage %v", alpha, gotAbove)
		}
	}
}

func TestHashFuncBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHashFunc(4, 4.0, rng)
	if h.B < 0 || h.B >= 4.0 {
		t.Errorf("offset B=%v outside [0,w)", h.B)
	}
	o := []float64{1, 2, 3, 4}
	raw := h.Raw(o)
	want := int(math.Floor(raw / 4.0))
	if h.Hash(o) != want {
		t.Errorf("Hash=%d want %d", h.Hash(o), want)
	}
}

// Points closer than w/4 should collide much more often than points
// farther than 4w (the locality-sensitivity property).
func TestHashLocalitySensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, trials = 16, 2000
	w := 4.0
	closeColl, farColl := 0, 0
	for i := 0; i < trials; i++ {
		h := NewHashFunc(d, w, rng)
		base := make([]float64, d)
		for j := range base {
			base[j] = rng.NormFloat64()
		}
		near := vec.Clone(base)
		near[0] += w / 4
		far := vec.Clone(base)
		far[0] += 4 * w
		if h.Hash(base) == h.Hash(near) {
			closeColl++
		}
		if h.Hash(base) == h.Hash(far) {
			farColl++
		}
	}
	if closeColl <= farColl*2 {
		t.Errorf("close collisions %d not ≫ far collisions %d", closeColl, farColl)
	}
}

func TestKeyInjective(t *testing.T) {
	f := func(a, b []int8) bool {
		x := make([]int, len(a))
		y := make([]int, len(a))
		equal := len(a) == len(b)
		for i := range a {
			x[i] = int(a[i])
			if i < len(b) {
				y[i] = int(b[i])
				if a[i] != b[i] {
					equal = false
				}
			}
		}
		if len(a) != len(b) {
			return true // only compare same-length keys
		}
		return (Key(x) == Key(y)) == equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Negative values must not alias positive ones.
	if Key([]int{-1}) == Key([]int{255}) {
		t.Error("negative bucket aliases positive")
	}
}

func TestTableStoresEveryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randPoints(200, 10, 12)
	g := NewCompoundHash(4, 10, 4.0, rng)
	table := NewTable(g, data)
	total := 0
	seen := make(map[int32]bool)
	for id, o := range data {
		ids := table.Bucket(g.Buckets(o))
		found := false
		for _, x := range ids {
			if x == int32(id) {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d missing from its own bucket", id)
		}
	}
	// Every id appears exactly once across all buckets.
	for _, o := range data {
		for _, x := range table.Bucket(g.Buckets(o)) {
			if !seen[x] {
				seen[x] = true
				total++
			}
		}
	}
	if total != len(data) {
		t.Errorf("stored %d unique ids, want %d", total, len(data))
	}
	if table.Len() == 0 || table.Len() > len(data) {
		t.Errorf("bucket count %d out of range", table.Len())
	}
	if g.K() != 4 || len(g.Funcs()) != 4 {
		t.Errorf("K=%d", g.K())
	}
}

func TestTableBucketMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewCompoundHash(2, 3, 4.0, rng)
	table := NewTable(g, nil)
	if ids := table.Bucket([]int{123456, -99}); ids != nil {
		t.Errorf("empty table returned %v", ids)
	}
}

// TestProjectMatchesDotPerRow: a point's projection, one point at a
// time or a store at once, is one vec.Dot per coefficient row, bit for
// bit, at every m from 1 through 33 (whole groups of four rows and
// every leftover) and odd widths.
func TestProjectMatchesDotPerRow(t *testing.T) {
	for _, d := range []int{1, 6, 129} {
		pts := randPoints(9, d, int64(d))
		src, err := store.FromRows(pts)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 33; m++ {
			p, _ := NewProjection(m, d, int64(m))
			stored, err := p.ProjectStore(src)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range pts {
				got := p.Project(o)
				for j, v := range got {
					if want := vec.Dot(p.Row(j), o); math.Float64bits(v) != math.Float64bits(want) ||
						math.Float64bits(stored.Row(i)[j]) != math.Float64bits(want) {
						t.Fatalf("d=%d m=%d point %d row %d: Project %v, ProjectStore %v, Dot %v", d, m, i, j, v, stored.Row(i)[j], want)
					}
				}
			}
		}
	}
}

// BenchmarkProjectStore is a build's projection alone at the benchmark
// workloads' shapes, at the paper's m = 15 and the default m = 24.
func BenchmarkProjectStore(b *testing.B) {
	for _, shape := range []struct{ m, d, n int }{{15, 128, 4000}, {24, 128, 4000}, {24, 768, 1000}} {
		b.Run(fmt.Sprintf("m%d/d%d", shape.m, shape.d), func(b *testing.B) {
			src, err := store.FromRows(randPoints(shape.n, shape.d, 1))
			if err != nil {
				b.Fatal(err)
			}
			p, _ := NewProjection(shape.m, shape.d, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ProjectStore(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
