// Package stats implements the probability machinery PM-LSH relies on:
// the χ² distribution (density, CDF, and upper quantile, used by the
// tunable confidence interval of Lemma 3 and the projection bound of
// Eq. 10), the standard normal distribution, and the p-stable LSH
// collision probability of Eq. 2.
//
// Everything is implemented from first principles on top of math.Lgamma
// and math.Erfc; no external numerics packages are used.
package stats

import (
	"errors"
	"math"
)

// ErrNoConverge is returned when an iterative routine fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConverge = errors.New("stats: iteration did not converge")

const (
	gammaEps     = 1e-14
	gammaMaxIter = 500
)

// RegularizedGammaP computes the regularized lower incomplete gamma
// function P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// For x < a+1 it uses the classic power-series expansion; otherwise the
// Lentz continued fraction for Q(a, x) = 1 - P(a, x). Both converge to
// roughly machine precision for the argument ranges that arise from χ²
// with up to a few thousand degrees of freedom.
func RegularizedGammaP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a):
		return math.NaN(), errors.New("stats: RegularizedGammaP requires a > 0")
	case x < 0 || math.IsNaN(x):
		return math.NaN(), errors.New("stats: RegularizedGammaP requires x >= 0")
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		return lowerGammaSeries(a, x)
	}
	q, err := upperGammaContinuedFraction(a, x)
	return 1 - q, err
}

// lowerGammaSeries evaluates P(a,x) by its power series,
// P(a,x) = x^a e^{-x} / Γ(a) * Σ_{n>=0} x^n / (a (a+1) … (a+n)).
func lowerGammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg), ErrNoConverge
}

// upperGammaContinuedFraction evaluates Q(a,x) with the modified Lentz
// algorithm applied to the standard continued fraction representation.
func upperGammaContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h, ErrNoConverge
}
