package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegularizedGammaPKnownValues(t *testing.T) {
	// Reference values computed from the identity P(1, x) = 1 - e^{-x}
	// and P(1/2, x) = erf(sqrt(x)).
	tests := []struct {
		a, x, want float64
	}{
		{1, 0, 0},
		{1, 1, 1 - math.Exp(-1)},
		{1, 5, 1 - math.Exp(-5)},
		{0.5, 0.25, math.Erf(0.5)},
		{0.5, 4, math.Erf(2)},
		{2, 3, 1 - math.Exp(-3)*(1+3)},
		{3, 2, 1 - math.Exp(-2)*(1+2+2)},
	}
	for _, tc := range tests {
		got, err := RegularizedGammaP(tc.a, tc.x)
		if err != nil {
			t.Fatalf("P(%v,%v): %v", tc.a, tc.x, err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%v,%v) = %.15f, want %.15f", tc.a, tc.x, got, tc.want)
		}
	}
}

func TestRegularizedGammaPInvalid(t *testing.T) {
	if _, err := RegularizedGammaP(0, 1); err == nil {
		t.Error("a=0 should fail")
	}
	if _, err := RegularizedGammaP(-1, 1); err == nil {
		t.Error("a<0 should fail")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("x<0 should fail")
	}
}

// regularizedGammaQ is Q(a, x) = 1 - P(a, x).
func regularizedGammaQ(a, x float64) (float64, error) {
	p, err := RegularizedGammaP(a, x)
	return 1 - p, err
}

func TestRegularizedGammaQComplement(t *testing.T) {
	f := func(au, xu uint16) bool {
		a := 0.1 + float64(au%1000)/10
		x := float64(xu%2000) / 10
		p, err1 := RegularizedGammaP(a, x)
		q, err2 := regularizedGammaQ(a, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p+q-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	// χ²(2) has CDF 1 - e^{-x/2}; χ²(1) CDF = erf(sqrt(x/2)).
	c2 := ChiSquared{K: 2}
	for _, x := range []float64{0.1, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x/2)
		if got := c2.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("χ²(2).CDF(%v) = %v, want %v", x, got, want)
		}
	}
	c1 := ChiSquared{K: 1}
	for _, x := range []float64{0.5, 1, 4} {
		want := math.Erf(math.Sqrt(x / 2))
		if got := c1.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("χ²(1).CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if got := c2.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
}

func TestChiSquaredQuantileTableValues(t *testing.T) {
	// Standard table values: χ²_{0.05}(15) = 24.996 (upper 5% of 15 dof),
	// χ²_{0.95}(15) = 7.261; χ²_{0.05}(1) = 3.841.
	tests := []struct {
		k     int
		alpha float64
		want  float64
		tol   float64
	}{
		{15, 0.05, 24.996, 0.001},
		{15, 0.95, 7.261, 0.001},
		{1, 0.05, 3.841, 0.001},
		{10, 0.5, 9.342, 0.001},
		{100, 0.05, 124.342, 0.01},
	}
	for _, tc := range tests {
		got, err := ChiSquared{K: tc.k}.UpperQuantile(tc.alpha)
		if err != nil {
			t.Fatalf("UpperQuantile(%d,%v): %v", tc.k, tc.alpha, err)
		}
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("χ²_%v(%d) = %v, want %v", tc.alpha, tc.k, got, tc.want)
		}
	}
}

// Property: Quantile is the inverse of CDF across dof and p.
func TestChiSquaredQuantileRoundTrip(t *testing.T) {
	f := func(ku, pu uint16) bool {
		k := int(ku%300) + 1
		p := (float64(pu%998) + 1) / 1000 // in (0.001, 0.999)
		c := ChiSquared{K: k}
		x, err := c.Quantile(p)
		if err != nil {
			return false
		}
		return math.Abs(c.CDF(x)-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing in x.
func TestChiSquaredCDFMonotone(t *testing.T) {
	c := ChiSquared{K: 15}
	prev := -1.0
	for x := 0.0; x < 60; x += 0.25 {
		v := c.CDF(x)
		if v < prev-1e-15 {
			t.Fatalf("CDF not monotone at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestChiSquaredQuantileInvalid(t *testing.T) {
	c := ChiSquared{K: 5}
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := c.Quantile(p); err == nil {
			t.Errorf("Quantile(%v) should fail", p)
		}
	}
	if _, err := c.UpperQuantile(0); err == nil {
		t.Error("UpperQuantile(0) should fail")
	}
	if _, err := (ChiSquared{K: 0}).Quantile(0.5); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestChiSquaredMoments(t *testing.T) {
	c := ChiSquared{K: 7}
	if c.Mean() != 7 || c.Variance() != 14 {
		t.Errorf("moments = %v, %v", c.Mean(), c.Variance())
	}
}

// Statistical check of Lemma 1: for X ~ N(0,1)^m, Σ X_i² has χ²(m) CDF.
func TestChiSquaredMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m, trials = 15, 20000
	c := ChiSquared{K: m}
	thresholds := []float64{8, 12, 15, 20, 25}
	counts := make([]int, len(thresholds))
	for i := 0; i < trials; i++ {
		var s float64
		for j := 0; j < m; j++ {
			x := rng.NormFloat64()
			s += x * x
		}
		for ti, th := range thresholds {
			if s <= th {
				counts[ti]++
			}
		}
	}
	for ti, th := range thresholds {
		emp := float64(counts[ti]) / trials
		want := c.CDF(th)
		if math.Abs(emp-want) > 0.015 {
			t.Errorf("CDF(%v): empirical %v vs analytic %v", th, emp, want)
		}
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, x := range []float64{0, 0.5, 1, 2, 3.5} {
		if got := NormalCDF(x) + NormalCDF(-x); math.Abs(got-1) > 1e-14 {
			t.Errorf("Φ(%v)+Φ(-%v) = %v", x, x, got)
		}
	}
	if math.Abs(NormalCDF(0)-0.5) > 1e-15 {
		t.Error("Φ(0) != 0.5")
	}
	if math.Abs(NormalCDF(1.959963985)-0.975) > 1e-8 {
		t.Error("Φ(1.96) != 0.975")
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		x := normalQuantile(p)
		if math.Abs(NormalCDF(x)-p) > 1e-9 {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, NormalCDF(x))
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("quantile boundaries should be ±Inf")
	}
}

func TestNormalPDFPeak(t *testing.T) {
	if math.Abs(NormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-15 {
		t.Error("φ(0) wrong")
	}
	if NormalPDF(1) >= NormalPDF(0) {
		t.Error("φ not peaked at 0")
	}
}

// collisionProbNumeric evaluates Eq. 2 by direct numerical integration
// (composite Simpson, 2048 panels): the integral exactly as the paper
// states it, the oracle of CollisionProb's closed form.
func collisionProbNumeric(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	const n = 2048 // even
	h := w / n
	f := func(t float64) float64 {
		return (1 / tau) * NormalPDF(t/tau) * (1 - t/w)
	}
	sum := f(0) + f(w)
	for i := 1; i < n; i++ {
		t := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(t)
		} else {
			sum += 2 * f(t)
		}
	}
	// The paper's integrand covers only positive projections; the collision
	// event is symmetric, hence the factor 2.
	return 2 * sum * h / 3
}

func TestCollisionProbClosedFormMatchesIntegral(t *testing.T) {
	for _, w := range []float64{1, 4, 10} {
		for _, tau := range []float64{0.1, 0.5, 1, 2, 5, 20} {
			cf := CollisionProb(tau, w)
			ni := collisionProbNumeric(tau, w)
			if math.Abs(cf-ni) > 1e-6 {
				t.Errorf("w=%v tau=%v: closed form %v vs integral %v", w, tau, cf, ni)
			}
		}
	}
}

// Property: collision probability decreases with distance (locality
// sensitivity, the defining property of the hash family).
func TestCollisionProbMonotoneDecreasing(t *testing.T) {
	const w = 4.0
	prev := 1.0
	for tau := 0.01; tau < 50; tau *= 1.3 {
		p := CollisionProb(tau, w)
		if p > prev+1e-12 {
			t.Fatalf("p(tau) not decreasing at tau=%v", tau)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p(tau)=%v out of [0,1]", p)
		}
		prev = p
	}
}

func TestCollisionProbLimits(t *testing.T) {
	if CollisionProb(0, 4) != 1 {
		t.Error("p(0) should be 1")
	}
	if p := CollisionProb(1e6, 4); p > 1e-3 {
		t.Errorf("p(huge) = %v, want ~0", p)
	}
}

func TestQueryCentredCollisionProb(t *testing.T) {
	// At tau = w/2 the half-window is exactly one standard deviation of
	// the projected difference: p = 2Φ(1) - 1 ≈ 0.6827.
	w := 4.0
	if got := QueryCentredCollisionProb(w/2, w); math.Abs(got-(2*NormalCDF(1)-1)) > 1e-12 {
		t.Errorf("query-centred p = %v", got)
	}
	if QueryCentredCollisionProb(0, w) != 1 {
		t.Error("tau=0 should give 1")
	}
	// Monotone decreasing as well.
	if QueryCentredCollisionProb(1, w) <= QueryCentredCollisionProb(2, w) {
		t.Error("query-centred p not decreasing")
	}
}

// Empirical check of CollisionProb against Monte-Carlo simulation of the
// actual hash function on random pairs.
func TestCollisionProbMatchesHashSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const d, trials = 8, 30000
	w := 4.0
	for _, tau := range []float64{1.0, 3.0, 6.0} {
		collide := 0
		for i := 0; i < trials; i++ {
			// Points at exact distance tau along a random direction.
			dir := make([]float64, d)
			var norm float64
			for j := range dir {
				dir[j] = rng.NormFloat64()
				norm += dir[j] * dir[j]
			}
			norm = math.Sqrt(norm)
			a := make([]float64, d)
			var pa, pb float64
			b := rng.Float64() * w
			for j := range a {
				a[j] = rng.NormFloat64()
				pa += a[j] * 0 // origin
				pb += a[j] * (dir[j] / norm * tau)
			}
			h1 := math.Floor((pa + b) / w)
			h2 := math.Floor((pb + b) / w)
			if h1 == h2 {
				collide++
			}
		}
		emp := float64(collide) / trials
		want := CollisionProb(tau, w)
		if math.Abs(emp-want) > 0.02 {
			t.Errorf("tau=%v: empirical %v vs analytic %v", tau, emp, want)
		}
	}
}
