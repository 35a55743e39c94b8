package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// almostEqual is for properties whose reference genuinely rounds
// differently (e.g. a sequential sum vs the 4-accumulator kernels).
// Where the contract is bit-identity the tests compare exactly.
func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDotBasic(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"single", []float64{2}, []float64{3}, 6},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"negative", []float64{1, -2, 3}, []float64{4, 5, -6}, 4 - 10 - 18},
		{"len5 crosses unroll boundary", []float64{1, 1, 1, 1, 1}, []float64{1, 2, 3, 4, 5}, 15},
		{"len8 exact unroll", []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{8, 7, 6, 5, 4, 3, 2, 1}, 120},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// Every case is exactly representable: the kernel owes the
			// exact value, whatever backend is dispatched.
			if got := Dot(tc.a, tc.b); got != tc.want {
				t.Errorf("Dot = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSquaredL2Basic(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"same point", []float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{"pythagoras", []float64{0, 0}, []float64{3, 4}, 25},
		{"len7 tail", []float64{1, 1, 1, 1, 1, 1, 1}, []float64{0, 0, 0, 0, 0, 0, 0}, 7},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// Exactly representable inputs and sums: demand exact results.
			if got := SquaredL2(tc.a, tc.b); got != tc.want {
				t.Errorf("SquaredL2 = %v, want %v", got, tc.want)
			}
			if got := L2(tc.a, tc.b); got != math.Sqrt(tc.want) {
				t.Errorf("L2 = %v, want %v", got, math.Sqrt(tc.want))
			}
		})
	}
}

func TestL1Basic(t *testing.T) {
	if got := L1([]float64{1, -2, 3}, []float64{-1, 2, 0}); got != 2+4+3 {
		t.Errorf("L1 = %v, want 9", got)
	}
}

// Property: the dispatched kernels are bit-identical to the portable
// reference kernels, and within rounding of a naive sequential sum
// (which legitimately associates differently), on random inputs of
// random lengths (covers every tail length mod 4).
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		d := int(n%33) + 1
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var dot, sq float64
		for i := range a {
			dot += a[i] * b[i]
			diff := a[i] - b[i]
			sq += diff * diff
		}
		return Dot(a, b) == dotGeneric(a, b) &&
			SquaredL2(a, b) == squaredL2Generic(a, b) &&
			almostEqual(Dot(a, b), dot, 1e-9) && almostEqual(SquaredL2(a, b), sq, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality holds for L2 on random triples.
func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		d := int(n%16) + 2
		p := make([][]float64, 3)
		for i := range p {
			p[i] = make([]float64, d)
			for j := range p[i] {
				p[i][j] = rng.NormFloat64() * 10
			}
		}
		ab := L2(p[0], p[1])
		bc := L2(p[1], p[2])
		ac := L2(p[0], p[2])
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone must not share backing storage")
	}
}

func TestScale(t *testing.T) {
	a := []float64{1, 2}
	dst := make([]float64, 2)
	Scale(dst, a, 2)
	if dst[0] != 2 || dst[1] != 4 {
		t.Errorf("Scale = %v", dst)
	}
}

func TestMean(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 4}}
	m := Mean(pts)
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Error("Mean(nil) should be nil")
	}
}

func TestInsertBounded(t *testing.T) {
	type item struct{ d float64 }
	key := func(x item) float64 { return x.d }
	var s []item
	for _, d := range []float64{5, 1, 3, 2, 4} {
		s = InsertBounded(s, item{d}, 3, key)
	}
	if len(s) != 3 || s[0].d != 1 || s[1].d != 2 || s[2].d != 3 {
		t.Errorf("top-3: %+v", s)
	}
	// Beyond-cap insert leaves the slice unchanged.
	s = InsertBounded(s, item{9}, 3, key)
	if len(s) != 3 || s[2].d != 3 {
		t.Errorf("cap breached: %+v", s)
	}
	// Equal keys keep first-inserted order.
	type tagged struct {
		d   float64
		tag int
	}
	var ts []tagged
	ts = InsertBounded(ts, tagged{1, 0}, 3, func(x tagged) float64 { return x.d })
	ts = InsertBounded(ts, tagged{1, 1}, 3, func(x tagged) float64 { return x.d })
	ts = InsertBounded(ts, tagged{1, 2}, 3, func(x tagged) float64 { return x.d })
	if ts[0].tag != 0 || ts[1].tag != 1 || ts[2].tag != 2 {
		t.Errorf("tie order: %+v", ts)
	}
}
