package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSquaredL2BoundedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(70) // cover sub-stride, stride and tail lengths
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		exact := SquaredL2(a, b)
		// Bound above the distance: the accumulation pattern mirrors
		// SquaredL2, so the result must be bit-identical.
		if got := SquaredL2Bounded(a, b, exact+1); got != exact {
			t.Fatalf("d=%d: bounded(%v) = %v, want %v", d, exact+1, got, exact)
		}
		// Disabled bound: exact (same code path as SquaredL2).
		if got := SquaredL2Bounded(a, b, 0); got != exact {
			t.Fatalf("d=%d: bound 0 gave %v, want %v", d, got, exact)
		}
		// Bound below the distance: whatever comes back must exceed the
		// bound so the candidate is provably prunable.
		if exact > 0 {
			bound := exact / 2
			if got := SquaredL2Bounded(a, b, bound); got <= bound {
				t.Fatalf("d=%d: bounded returned %v <= bound %v", d, got, bound)
			}
		}
	}
}

func TestSquaredL2BoundedAbandons(t *testing.T) {
	// A huge leading difference must trip the first stride check; the
	// returned partial sum then excludes the tail.
	d := 4 * abandonStride
	a := make([]float64, d)
	b := make([]float64, d)
	a[0] = 1000 // (1000)^2 >> bound
	b[d-1] = 5
	got := SquaredL2Bounded(a, b, 1)
	if got <= 1 {
		t.Fatalf("expected early abandon > bound, got %v", got)
	}
	if got >= SquaredL2(a, b) {
		t.Fatalf("expected a partial sum (%v) below the exact distance %v", got, SquaredL2(a, b))
	}
}

func TestSquaredL2BoundedMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SquaredL2Bounded([]float64{1}, []float64{1, 2}, 1)
}

func TestSquaredL2ToMany(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const dim, n = 13, 9
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	got := SquaredL2ToMany(nil, q, flat, dim)
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for r := 0; r < n; r++ {
		want := SquaredL2(q, flat[r*dim:(r+1)*dim])
		if math.Abs(got[r]-want) > 1e-12 {
			t.Fatalf("row %d: got %v want %v", r, got[r], want)
		}
	}
	// Reusing a destination slice.
	dst := make([]float64, n)
	if out := SquaredL2ToMany(dst, q, flat, dim); &out[0] != &dst[0] {
		t.Fatal("dst not reused")
	}
}

func TestSquaredL2ToManyPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad dim", func() { SquaredL2ToMany(nil, []float64{1}, []float64{1, 2}, 2) })
	mustPanic("ragged flat", func() { SquaredL2ToMany(nil, []float64{1, 2}, []float64{1, 2, 3}, 2) })
	mustPanic("bad dst", func() { SquaredL2ToMany(make([]float64, 3), []float64{1, 2}, []float64{1, 2, 3, 4}, 2) })
}

// TestMaxAbsDiffToMany pins the fold's definition on whichever backend
// is active: dst keeps its seed unless a row's Chebyshev distance to q
// is strictly greater, and NaN terms are ignored.
func TestMaxAbsDiffToMany(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 2, 5, 8} {
		for n := 0; n <= 17; n++ {
			q := make([]float64, dim)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			flat := make([]float64, n*dim)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			if n > 2 {
				flat[dim] = math.NaN() // first term of row 1
			}
			dst := make([]float64, n)
			want := make([]float64, n)
			for r := range dst {
				dst[r] = rng.Float64() * 2 // some seeds win, some lose
				want[r] = dst[r]
				for k := 0; k < dim; k++ {
					if b := math.Abs(q[k] - flat[r*dim+k]); b > want[r] {
						want[r] = b
					}
				}
			}
			MaxAbsDiffToMany(dst, q, flat, dim)
			for r := range dst {
				if math.Float64bits(dst[r]) != math.Float64bits(want[r]) {
					t.Fatalf("dim=%d n=%d row %d: got %v want %v", dim, n, r, dst[r], want[r])
				}
			}
		}
	}
}

func TestMaxAbsDiffToManyPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero dim", func() { MaxAbsDiffToMany(nil, nil, nil, 0) })
	mustPanic("bad q", func() { MaxAbsDiffToMany(make([]float64, 1), []float64{1}, []float64{1, 2}, 2) })
	mustPanic("ragged flat", func() { MaxAbsDiffToMany(make([]float64, 1), []float64{1, 2}, []float64{1, 2, 3}, 2) })
	mustPanic("bad dst", func() { MaxAbsDiffToMany(make([]float64, 3), []float64{1, 2}, []float64{1, 2, 3, 4}, 2) })
}

func TestMeanMinMaxRagged(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	ragged := [][]float64{{1, 2}, {3, 4, 5}}
	mustPanic("Mean long row", func() { Mean(ragged) })
	mustPanic("Mean short row", func() { Mean([][]float64{{1, 2}, {3}}) })
	mustPanic("MinMax long row", func() { MinMax(ragged) })
	mustPanic("MinMax short row", func() { MinMax([][]float64{{1, 2}, {3}}) })

	// Uniform inputs still work.
	m := Mean([][]float64{{1, 3}, {3, 5}})
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
	lo, hi := MinMax([][]float64{{1, 5}, {3, 2}})
	if lo[0] != 1 || lo[1] != 2 || hi[0] != 3 || hi[1] != 5 {
		t.Fatalf("MinMax = %v %v", lo, hi)
	}
	if Mean(nil) != nil {
		t.Fatal("Mean(nil) should be nil")
	}
	if lo, hi := MinMax(nil); lo != nil || hi != nil {
		t.Fatal("MinMax(nil) should be nil, nil")
	}
}

func BenchmarkSquaredL2Bounded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const dim = 128
	a := make([]float64, dim)
	c := make([]float64, dim)
	for i := range a {
		a[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	bound := SquaredL2(a, c) / 4 // abandons most of the way in
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SquaredL2Bounded(a, c, bound)
	}
}

// Kernel microbenchmarks at the two dims the engine actually runs hot:
// the m = 15 projected space and full-dimensional verification rows.
// Run with and without -tags noasm to measure the dispatch gain.
func benchPair(b *testing.B, dim int, f func(a, c []float64)) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, dim)
	c := make([]float64, dim)
	for i := range a {
		a[i] = rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f(a, c)
	}
}

func BenchmarkSquaredL2(b *testing.B) {
	for _, dim := range []int{15, 64, 128, 768} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			benchPair(b, dim, func(a, c []float64) { SquaredL2(a, c) })
		})
	}
}

func BenchmarkDot(b *testing.B) {
	for _, dim := range []int{15, 64, 128, 768} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			benchPair(b, dim, func(a, c []float64) { Dot(a, c) })
		})
	}
}

func BenchmarkSquaredL2ToMany(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const dim, rows = 15, 256
	q := make([]float64, dim)
	flat := make([]float64, dim*rows)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	out := make([]float64, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SquaredL2ToMany(out, q, flat, dim)
	}
}
