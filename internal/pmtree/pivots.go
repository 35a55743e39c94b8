package pmtree

import (
	"math/rand"

	"repro/internal/vec"
)

// pivotSampleCap bounds the candidate pool used for pivot selection.
const pivotSampleCap = 2048

// selectPivots picks s pivots by farthest-first traversal over a sample
// of the data: the first pivot is the sample point farthest from the
// centroid, and each subsequent pivot maximizes the minimum distance to
// the pivots chosen so far. Widely-separated pivots make the hyper-ring
// intervals narrow for most subtrees, which is what shrinks the PM-tree
// region volume (the criterion the paper optimizes).
func selectPivots(data [][]float64, s int, seed int64) [][]float64 {
	if s <= 0 || len(data) == 0 {
		return nil
	}
	if s > len(data) {
		s = len(data)
	}
	sample := data
	if len(data) > pivotSampleCap {
		sample = make([][]float64, pivotSampleCap)
		for i, idx := range rand.New(rand.NewSource(seed)).Perm(len(data))[:pivotSampleCap] {
			sample[i] = data[idx]
		}
	}
	// Seeded apart from the sampling: the fallback below draws alike either way.
	rng := rand.New(rand.NewSource(seed))

	centroid := vec.Mean(sample)
	first, best := 0, -1.0
	for i, p := range sample {
		if d := vec.SquaredL2(p, centroid); d > best {
			best = d
			first = i
		}
	}

	pivots := make([][]float64, 0, s)
	pivots = append(pivots, sample[first])
	minDist := make([]float64, len(sample))
	for i, p := range sample {
		minDist[i] = vec.SquaredL2(p, pivots[0])
	}
	for len(pivots) < s {
		next, bestD := 0, -1.0
		for i, d := range minDist {
			if d > bestD {
				bestD = d
				next = i
			}
		}
		if bestD <= 0 {
			// All remaining candidates coincide with a chosen pivot;
			// fall back to a random one to keep the requested count.
			next = rng.Intn(len(sample))
		}
		pivots = append(pivots, sample[next])
		for i, p := range sample {
			if d := vec.SquaredL2(p, sample[next]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	// Copy so later mutation of the dataset cannot corrupt the tree.
	out := make([][]float64, len(pivots))
	for i, p := range pivots {
		out[i] = vec.Clone(p)
	}
	return out
}
