package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// testVector returns a length-n slice whose backing array is offset so
// the data pointer is 8-byte but not 32-byte aligned half the time,
// exercising the unaligned loads in the assembly.
func testVector(rng *rand.Rand, n int) []float64 {
	off := rng.Intn(4)
	backing := make([]float64, n+off)
	v := backing[off : off+n : off+n]
	for i := range v {
		// Spread magnitudes so accumulation order matters: any
		// reassociation in the backend shows up as a bit flip.
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
	}
	return v
}

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

// TestSquaredL2BoundedGatherMatchesBounded sweeps the gather kernel of
// whichever backend is active against SquaredL2Bounded row by row:
// every dimension through 70 (sub-stride, stride and tail lengths),
// lists of 0–9 indices with repeats (whole groups, padded groups and
// both), bounds that abandon everything, some rows, or nothing. For a
// positive, infinite or NaN bound the results are bit-identical; at
// bound 0 — the one deliberate difference, where SquaredL2Bounded
// computes in full — each result is the exact distance or a partial
// above 0.
func TestSquaredL2BoundedGatherMatchesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 70; d++ {
		const nrows = 7
		q, flat := testVector(rng, d), testVector(rng, nrows*d)
		// Row 5 and 6 are special: a NaN and a +Inf/−Inf component.
		flat[5*d+rng.Intn(d)] = math.NaN()
		flat[6*d+rng.Intn(d)] = math.Inf(1 - 2*rng.Intn(2))
		row := func(r int32) []float64 { return flat[int(r)*d : (int(r)+1)*d] }
		for n := 0; n <= 9; n++ {
			rows := make([]int32, n)
			for j := range rows {
				rows[j] = int32(rng.Intn(nrows))
			}
			pivot := SquaredL2(q, row(int32(rng.Intn(5))))
			dst := make([]float64, n)
			for _, bound := range []float64{pivot * 1e-3, pivot * 0.5, pivot * 4, math.Inf(1), math.NaN()} {
				if bound == 0 {
					continue
				}
				SquaredL2BoundedGather(dst, q, flat, rows, bound)
				for j, r := range rows {
					want := SquaredL2Bounded(q, row(r), bound)
					if math.Float64bits(dst[j]) != math.Float64bits(want) && !(math.IsNaN(dst[j]) && math.IsNaN(want)) {
						t.Fatalf("d=%d n=%d bound=%v row %d (slot %d): gather=%v bounded=%v",
							d, n, bound, r, j, dst[j], want)
					}
				}
			}
			SquaredL2BoundedGather(dst, q, flat, rows, 0)
			for j, r := range rows {
				exact := SquaredL2(q, row(r))
				if math.Float64bits(dst[j]) != math.Float64bits(exact) && !(dst[j] > 0) && !math.IsNaN(exact) {
					t.Fatalf("d=%d n=%d bound=0 row %d: gather=%v, want exact %v or a partial > 0",
						d, n, r, dst[j], exact)
				}
			}
		}
	}
}

func TestSquaredL2BoundedGatherPanics(t *testing.T) {
	flat := []float64{1, 2, 3, 4}
	mustPanic(t, "empty q", func() { SquaredL2BoundedGather(make([]float64, 1), nil, flat, []int32{0}, 1) })
	mustPanic(t, "short dst", func() { SquaredL2BoundedGather(make([]float64, 1), []float64{1, 2}, flat, []int32{0, 1}, 1) })
	mustPanic(t, "row past end", func() { SquaredL2BoundedGather(make([]float64, 1), []float64{1, 2}, flat, []int32{2}, 1) })
	mustPanic(t, "row in ragged tail", func() { SquaredL2BoundedGather(make([]float64, 1), []float64{1, 2, 3}, flat, []int32{1}, 1) })
	mustPanic(t, "negative row", func() { SquaredL2BoundedGather(make([]float64, 1), []float64{1, 2}, flat, []int32{-1}, 1) })
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
	mustPanic(t, "bad dim", func() { SquaredL2ToMany(nil, []float64{1}, []float64{1, 2}, 2) })
	mustPanic(t, "ragged flat", func() { SquaredL2ToMany(nil, []float64{1, 2}, []float64{1, 2, 3}, 2) })
	mustPanic(t, "bad dst", func() { SquaredL2ToMany(make([]float64, 3), []float64{1, 2}, []float64{1, 2, 3, 4}, 2) })
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
	mustPanic(t, "zero dim", func() { MaxAbsDiffToMany(nil, nil, nil, 0) })
	mustPanic(t, "bad q", func() { MaxAbsDiffToMany(make([]float64, 1), []float64{1}, []float64{1, 2}, 2) })
	mustPanic(t, "ragged flat", func() { MaxAbsDiffToMany(make([]float64, 1), []float64{1, 2}, []float64{1, 2, 3}, 2) })
	mustPanic(t, "bad dst", func() { MaxAbsDiffToMany(make([]float64, 3), []float64{1, 2}, []float64{1, 2, 3, 4}, 2) })
}

func TestMeanRagged(t *testing.T) {
	ragged := [][]float64{{1, 2}, {3, 4, 5}}
	mustPanic(t, "Mean long row", func() { Mean(ragged) })
	mustPanic(t, "Mean short row", func() { Mean([][]float64{{1, 2}, {3}}) })

	// Uniform inputs still work.
	m := Mean([][]float64{{1, 3}, {3, 5}})
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Fatal("Mean(nil) should be nil")
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

// BenchmarkVerifyGather is the verification stage in isolation: one
// query against every row of a store the size of the benchmark
// workloads', visited in random order, one
// SquaredL2Bounded call per candidate against four candidates per
// SquaredL2BoundedGather call. "tight" abandons most rows within a few
// strides, as a full top-k does; "nobound" reduces every row to the
// end, as the first k candidates of a query do.
func BenchmarkVerifyGather(b *testing.B) {
	for _, shape := range []struct{ dim, n int }{{128, 20000}, {768, 8000}} {
		rng := rand.New(rand.NewSource(6))
		q := make([]float64, shape.dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		flat := make([]float64, shape.n*shape.dim)
		for i := range flat {
			flat[i] = rng.NormFloat64()
		}
		rows := make([]int32, shape.n) // every row once, so none is revisited while still cached
		for i, r := range rng.Perm(shape.n) {
			rows[i] = int32(r)
		}
		dst := make([]float64, len(rows))
		tight := SquaredL2(q, flat[:shape.dim]) / 4
		for _, bc := range []struct {
			name  string
			bound float64
		}{{"tight", tight}, {"nobound", math.Inf(1)}} {
			perCand := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/cand")
			}
			b.Run(fmt.Sprintf("d%d/%s/sequential", shape.dim, bc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, r := range rows {
						off := int(r) * shape.dim
						dst[j] = SquaredL2Bounded(q, flat[off:off+shape.dim], bc.bound)
					}
				}
				perCand(b)
			})
			b.Run(fmt.Sprintf("d%d/%s/gathered", shape.dim, bc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := 0; j < len(rows); j += 4 {
						SquaredL2BoundedGather(dst[j:j+4], q, flat, rows[j:j+4], bc.bound)
					}
				}
				perCand(b)
			})
		}
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
