package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/vec"
)

// Stats holds the Table 3 hardness statistics of a dataset.
type Stats struct {
	N   int
	D   int
	HV  float64 // homogeneity of viewpoints (Ciaccia et al.)
	RC  float64 // relative contrast (He et al.)
	LID float64 // local intrinsic dimensionality (Amsaleg et al.)
}

// StatsConfig bounds the sampling cost of statistic estimation.
type StatsConfig struct {
	// Viewpoints is the number of reference points for HV (0 = 20).
	Viewpoints int
	// Sample is the number of points distances are measured against
	// (0 = 500).
	Sample int
	// LIDNeighbors is the k used by the LID MLE (0 = 100).
	LIDNeighbors int
	// Seed fixes the sampling.
	Seed int64
}

func (c *StatsConfig) fill() {
	if c.Viewpoints == 0 {
		c.Viewpoints = 20
	}
	if c.Sample == 0 {
		c.Sample = 500
	}
	if c.LIDNeighbors == 0 {
		c.LIDNeighbors = 100
	}
}

// ComputeStats estimates HV, RC and LID for the data by sampling.
func ComputeStats(data [][]float64, cfg StatsConfig) (Stats, error) {
	if len(data) < 3 {
		return Stats{}, fmt.Errorf("dataset: need at least 3 points for statistics, got %d", len(data))
	}
	cfg.fill()
	st := Stats{N: len(data), D: len(data[0])}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sample := samplePoints(data, cfg.Sample, rng)
	st.HV = homogeneityOfViewpoints(data, sample, cfg.Viewpoints, rng)
	st.RC = relativeContrast(data, sample, rng)
	st.LID = localIntrinsicDim(data, sample, cfg.LIDNeighbors, rng)
	return st, nil
}

// samplePoints draws up to max distinct points.
func samplePoints(data [][]float64, max int, rng *rand.Rand) [][]float64 {
	if len(data) <= max {
		return data
	}
	perm := rng.Perm(len(data))[:max]
	out := make([][]float64, max)
	for i, idx := range perm {
		out[i] = data[idx]
	}
	return out
}

// homogeneityOfViewpoints implements HV from the cost-model paper
// (Ciaccia, Patella, Zezula, PODS 1998): 1 minus the average L1
// discrepancy between the distance distributions F_{o1} and F_{o2}
// observed from random viewpoint pairs, with x normalized to the
// maximum observed distance. HV close to 1 means every point sees
// nearly the same distance distribution, which is what lets the cost
// model (and PM-LSH's r_min selection) use one global F.
func homogeneityOfViewpoints(data, sample [][]float64, viewpoints int, rng *rand.Rand) float64 {
	if viewpoints < 2 {
		viewpoints = 2
	}
	vps := samplePoints(data, viewpoints, rng)
	// Distance lists from each viewpoint to the common sample.
	dists := make([][]float64, len(vps))
	maxD := 0.0
	for i, vp := range vps {
		ds := make([]float64, len(sample))
		for j, p := range sample {
			ds[j] = vec.L2(vp, p)
			if ds[j] > maxD {
				maxD = ds[j]
			}
		}
		sort.Float64s(ds)
		dists[i] = ds
	}
	if maxD == 0 {
		return 1 // all points identical: perfectly homogeneous
	}
	const gridSize = 100
	var sum float64
	var pairs int
	for i := 0; i < len(dists); i++ {
		for j := i + 1; j < len(dists); j++ {
			var disc float64
			for g := 1; g <= gridSize; g++ {
				x := maxD * float64(g) / gridSize
				disc += math.Abs(ecdf(dists[i], x) - ecdf(dists[j], x))
			}
			sum += disc / gridSize
			pairs++
		}
	}
	return 1 - sum/float64(pairs)
}

// ecdf evaluates the empirical CDF of a sorted sample at x.
func ecdf(sorted []float64, x float64) float64 {
	i := sort.SearchFloat64s(sorted, x)
	// Include ties at exactly x.
	for i < len(sorted) && sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(sorted))
}

// relativeContrast implements RC (He, Kumar, Chang, ICML 2012): the
// ratio of the mean distance to the nearest-neighbor distance,
// averaged over sample points. Low RC (→1) means the NN is barely
// closer than a random point — the hard regime for any NN index.
func relativeContrast(data, sample [][]float64, rng *rand.Rand) float64 {
	var meanSum, nnSum float64
	count := 0
	for _, q := range sample {
		var sum float64
		nn := math.Inf(1)
		seen := 0
		for _, p := range data {
			d := vec.L2(q, p)
			if d == 0 {
				continue // skip the point itself (and exact duplicates)
			}
			sum += d
			seen++
			if d < nn {
				nn = d
			}
		}
		if seen == 0 || math.IsInf(nn, 1) {
			continue
		}
		meanSum += sum / float64(seen)
		nnSum += nn
		count++
	}
	if count == 0 || nnSum == 0 {
		return 1
	}
	return meanSum / nnSum
}

// localIntrinsicDim implements the maximum-likelihood LID estimator of
// Amsaleg et al. (KDD 2015): for each sample point with sorted k-NN
// distances r_1 ≤ … ≤ r_k,
//
//	LID = −( (1/k) Σ ln(r_i / r_k) )⁻¹,
//
// averaged over the sample.
func localIntrinsicDim(data, sample [][]float64, k int, rng *rand.Rand) float64 {
	if k >= len(data) {
		k = len(data) - 1
	}
	if k < 2 {
		return 0
	}
	var sum float64
	count := 0
	for _, q := range sample {
		nn := knnDistances(data, q, k)
		if len(nn) == 0 {
			continue // every other point is an exact duplicate of q
		}
		rk := nn[len(nn)-1]
		if rk == 0 {
			continue
		}
		var s float64
		used := 0
		for _, r := range nn {
			if r == 0 {
				continue
			}
			s += math.Log(r / rk)
			used++
		}
		if used == 0 || s == 0 {
			continue
		}
		sum += -1 / (s / float64(used))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// knnDistances returns the k smallest non-self distances from q to
// data, sorted ascending.
func knnDistances(data [][]float64, q []float64, k int) []float64 {
	top := make([]float64, 0, k+1)
	for _, p := range data {
		d := vec.L2(q, p)
		if d == 0 {
			continue
		}
		if len(top) == k && d >= top[k-1] {
			continue
		}
		top = vec.InsertBounded(top, d, k, func(x float64) float64 { return x })
	}
	return top
}
