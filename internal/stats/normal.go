package stats

import "math"

// NormalPDF returns the standard normal density φ(x).
func NormalPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormalCDF returns the standard normal distribution function Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normalQuantile returns Φ⁻¹(p) for 0 < p < 1 using the
// Beasley–Springer–Moro rational approximation refined with one
// Newton step; accuracy is better than 1e-9 across the open interval.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Rational approximation (Acklam-style coefficients).
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-2.759285104469687e+02)*r+1.383577518672690e+02)*r-3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-1.556989798598866e+02)*r+6.680131188771972e+01)*r-1.328068155288572e+01)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	}
	// One Newton polish: x ← x − (Φ(x) − p)/φ(x).
	d := NormalPDF(x)
	if d > 1e-300 {
		x -= (NormalCDF(x) - p) / d
	}
	return x
}
