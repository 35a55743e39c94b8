package stats

import "math"

// CollisionProb returns the collision probability p(tau) of the p-stable
// hash h(o) = floor((a·o + b)/w) for two points at Euclidean distance
// tau, i.e. the paper's Eq. 2:
//
//	p(tau) = ∫₀ʷ (1/tau) f(t/tau) (1 - t/w) dt
//
// where f is the standard normal density. The integral has the closed
// form (Datar et al. 2004):
//
//	p(tau) = 1 - 2Φ(-w/tau) - (2 tau / (√(2π) w)) (1 - exp(-w²/(2 tau²)))
//
// For tau → 0 the probability tends to 1; tau must be non-negative and
// w positive.
func CollisionProb(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	u := w / tau
	return 1 - 2*NormalCDF(-u) - 2/(math.Sqrt(2*math.Pi)*u)*(1-math.Exp(-u*u/2))
}

// QueryCentredCollisionProb returns the collision probability of the
// query-aware scheme used by QALSH: the query anchors a bucket of width
// w centred on its own projection, so two points at distance tau collide
// when |a·(o1-o2)| <= w/2, giving
//
//	p(tau) = Φ(w/(2 tau)) - Φ(-w/(2 tau)) = 2Φ(w/(2 tau)) - 1.
func QueryCentredCollisionProb(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	return 2*NormalCDF(w/(2*tau)) - 1
}
