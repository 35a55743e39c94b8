// Package lscan implements the LScan baseline from the paper's
// evaluation: a linear scan that examines a fixed random fraction of
// the dataset (default 70%) and returns the exact top-k among the
// points it saw. It provides the floor any indexing method must beat.
package lscan

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metric"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// DefaultFraction is the portion of the dataset scanned per query
// ("randomly selects a portion of points (default 70%)").
const DefaultFraction = 0.7

// Config controls the scanner.
type Config struct {
	// Fraction of the dataset scanned per query, in (0, 1]. 0 means
	// DefaultFraction.
	Fraction float64
	// Seed fixes the scan order.
	Seed int64
}

// Scanner scans a fixed prefix of a seeded random permutation.
type Scanner struct {
	data  [][]float64
	order []int32
	limit int
	dim   int
}

// New builds a scanner over data; data is retained, not copied.
func New(data [][]float64, cfg Config) (*Scanner, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("lscan: New requires a non-empty dataset")
	}
	if cfg.Fraction == 0 {
		cfg.Fraction = DefaultFraction
	}
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("lscan: Fraction must be in (0,1], got %v", cfg.Fraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int32, len(data))
	for i := range order {
		order[i] = int32(i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	limit := int(cfg.Fraction * float64(len(data)))
	if limit < 1 {
		limit = 1
	}
	return &Scanner{data: data, order: order, limit: limit, dim: len(data[0])}, nil
}

// Len returns the dataset cardinality.
func (s *Scanner) Len() int { return len(s.data) }

// Scanned returns how many points each query examines.
func (s *Scanner) Scanned() int { return s.limit }

// ClosestPairs returns the exact k closest pairs of data (row indexes
// I < J) by exhaustive O(n²) scan — the ground truth the approximate
// closest-pair engine is verified against. Distances are compared
// squared with early abandonment against the running k-th best; the k
// square roots are deferred to the end. k is clamped to the number of
// distinct pairs.
func ClosestPairs(data [][]float64, k int) ([]metrics.Pair, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lscan: k must be positive, got %d", k)
	}
	n := len(data)
	if n < 2 {
		return nil, nil
	}
	// Validate every row before the pair loop: a ragged row must error,
	// not panic inside the distance kernel the moment it appears as the
	// second operand of a pair.
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("lscan: row %d has dimension %d, want %d", i, len(row), dim)
		}
	}
	if maxPairs := n * (n - 1) / 2; k > maxPairs {
		k = maxPairs
	}
	top := make([]metrics.Pair, 0, k) // squared distances until the end
	bound := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d2 := vec.SquaredL2Bounded(data[i], data[j], bound)
			if len(top) == k && d2 >= bound {
				continue
			}
			top = vec.InsertBounded(top, metrics.Pair{I: int32(i), J: int32(j), Dist: d2}, k,
				func(p metrics.Pair) float64 { return p.Dist })
			if len(top) == k {
				bound = top[k-1].Dist
			}
		}
	}
	for i := range top {
		top[i].Dist = math.Sqrt(top[i].Dist)
	}
	return top, nil
}

// KNN returns the exact k nearest among the scanned subset, sorted by
// distance.
func (s *Scanner) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	if len(q) != s.dim {
		return nil, fmt.Errorf("lscan: query has dimension %d, scanner expects %d", len(q), s.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("lscan: k must be positive, got %d", k)
	}
	out := make([]metrics.Neighbor, 0, vec.PreallocCap(k, s.limit))
	for _, id := range s.order[:s.limit] {
		d := vec.L2(q, s.data[id])
		if len(out) == k && d >= out[k-1].Dist {
			continue
		}
		out = vec.InsertBounded(out, metrics.Neighbor{ID: id, Dist: d}, k, metrics.NeighborDist)
	}
	return out, nil
}

// ExactKNN returns the ids of the exact k nearest of the live points
// (id → vector) to q under m, all of them when k is at least their
// number: the exhaustive scan recall is scored against. Ties at the
// k-th distance are broken by map order.
func ExactKNN(live map[int32][]float64, q []float64, k int, m metric.Kind) map[int32]bool {
	k = min(k, len(live))
	top := make([]metrics.Neighbor, 0, k)
	bound := math.Inf(1)
	for id, p := range live {
		var d float64
		if m == metric.L2 {
			d = vec.SquaredL2Bounded(q, p, bound)
		} else {
			d = NativeDist(m, q, p)
		}
		if len(top) == k && d >= bound {
			continue
		}
		top = vec.InsertBounded(top, metrics.Neighbor{ID: id, Dist: d}, k, metrics.NeighborDist)
		if len(top) == k {
			bound = top[k-1].Dist
		}
	}
	out := make(map[int32]bool, len(top))
	for _, n := range top {
		out[n.ID] = true
	}
	return out
}

// NativeDist is ExactKNN's exact distance for the non-L2 metrics
// (under L2 the bounded squared distance keeps ranks identical with
// less work).
func NativeDist(m metric.Kind, q, p []float64) float64 {
	switch m {
	case metric.Cosine:
		var dot, nq, np float64
		for i := range q {
			dot += q[i] * p[i]
			nq += q[i] * q[i]
			np += p[i] * p[i]
		}
		den := math.Sqrt(nq) * math.Sqrt(np)
		if den == 0 {
			return 1
		}
		return 1 - dot/den
	case metric.InnerProduct:
		var dot float64
		for i := range q {
			dot += q[i] * p[i]
		}
		return -dot
	case metric.Jaccard:
		qs := make(map[float64]bool, len(q))
		for _, t := range q {
			qs[t] = true
		}
		ps := make(map[float64]bool, len(p))
		inter := 0
		for _, t := range p {
			if !ps[t] {
				ps[t] = true
				if qs[t] {
					inter++
				}
			}
		}
		union := len(qs) + len(ps) - inter
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
	}
	panic(fmt.Sprintf("lscan: no native distance for metric %v", m))
}
