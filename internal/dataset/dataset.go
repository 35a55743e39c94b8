// Package dataset provides synthetic stand-ins for the seven real
// datasets of the paper's evaluation (Table 3), ground-truth exact kNN
// computation, and the dataset statistics the paper reports:
// homogeneity of viewpoints (HV), relative contrast (RC) and local
// intrinsic dimensionality (LID).
//
// Substitution note: the original datasets (Audio,
// Deep, NUS, MNIST, GIST, Cifar, Trevi) are image/audio feature
// collections that are not available offline. LSH and metric-index
// behavior depends on the cardinality, dimensionality and distance
// distribution of the data — not on feature semantics — so each dataset
// is emulated by a Gaussian cluster mixture whose points live near
// random low-dimensional subspaces. The subspace dimension targets the
// paper's LID column, and the cluster spread targets the RC column; the
// achieved statistics are recomputed and reported rather than assumed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vec"
)

// Spec describes one synthetic dataset.
type Spec struct {
	Name string
	// N is the number of points, D the dimensionality.
	N, D int
	// Clusters is the number of mixture components; 0 picks
	// max(2, N/1000) so each cluster holds ~1000 points, enough for the
	// k-NN power law that real feature datasets exhibit (see calibrate).
	Clusters int
	// SubspaceDim is the intrinsic dimensionality of each cluster
	// (targets the paper's LID column).
	SubspaceDim int
	// RCTarget steers the cluster spread so the relative contrast lands
	// near the paper's RC column.
	RCTarget float64
	// Seed makes generation deterministic.
	Seed int64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.N < 1 || s.D < 1 {
		return fmt.Errorf("dataset: %q needs positive N and D (got %d, %d)", s.Name, s.N, s.D)
	}
	if s.Clusters < 0 {
		return fmt.Errorf("dataset: %q cluster count must be >= 0 (0 = auto)", s.Name)
	}
	if s.SubspaceDim < 1 || s.SubspaceDim > s.D {
		return fmt.Errorf("dataset: %q subspace dim %d outside [1, %d]", s.Name, s.SubspaceDim, s.D)
	}
	if s.RCTarget <= 1 {
		return fmt.Errorf("dataset: %q RC target must exceed 1, got %v", s.Name, s.RCTarget)
	}
	return nil
}

// Dataset is a generated point collection. Points are zero-copy views
// into Store's flat buffer, so callers can use whichever shape fits:
// row slices for the baseline algorithms, the contiguous store for the
// PM-LSH core.
type Dataset struct {
	Spec   Spec
	Points [][]float64
	Store  *store.Store
}

// paperTable3 mirrors the paper's Table 3: cardinality (×10³),
// dimensionality, and the hardness statistics the generators target.
var paperTable3 = []struct {
	name string
	n    int
	d    int
	lid  float64
	rc   float64
}{
	{"Audio", 54_000, 192, 5.6, 2.97},
	{"Deep", 1_000_000, 256, 12.1, 1.96},
	{"NUS", 269_000, 500, 24.5, 1.67},
	{"MNIST", 60_000, 784, 6.5, 2.38},
	{"GIST", 983_000, 960, 18.9, 1.94},
	{"Cifar", 50_000, 1024, 9.0, 1.97},
	{"Trevi", 100_000, 4096, 9.2, 2.95},
}

// PaperSpecs returns specs for the seven evaluation datasets with
// cardinalities scaled by the given factor (1.0 = paper scale). Every
// spec keeps the paper's dimensionality. maxN, when positive, caps the
// scaled cardinality.
func PaperSpecs(scale float64, maxN int) ([]Spec, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dataset: scale must be in (0,1], got %v", scale)
	}
	out := make([]Spec, 0, len(paperTable3))
	for i, row := range paperTable3 {
		n := int(float64(row.n) * scale)
		if n < 200 {
			n = 200
		}
		if maxN > 0 && n > maxN {
			n = maxN
		}
		lid := int(math.Round(row.lid))
		if lid < 2 {
			lid = 2
		}
		out = append(out, Spec{
			Name:        row.name,
			N:           n,
			D:           row.d,
			Clusters:    0, // auto: ~1000-point clusters (see calibrate)
			SubspaceDim: lid,
			RCTarget:    row.rc,
			Seed:        int64(1000 + i),
		})
	}
	return out, nil
}

// SpecByName returns the paper spec with the given (case-sensitive)
// name at the requested scale.
func SpecByName(name string, scale float64, maxN int) (Spec, error) {
	specs, err := PaperSpecs(scale, maxN)
	if err != nil {
		return Spec{}, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate builds the synthetic dataset for a spec.
//
// Each cluster gets a center drawn from N(0, I_d) and a random basis of
// SubspaceDim near-orthogonal directions; points are center + B·z with
// z ~ N(0, σ² I) plus 5 % isotropic noise.
//
// σ and the effective cluster count are calibrated analytically so the
// measured relative contrast lands near RCTarget: with m points per
// cluster, the median NN distance inside a cluster is σ·√(2Q) where
// Q = χ²_sub-quantile(1/m) (pairwise differences are N(0, 2σ²) per
// intrinsic coordinate), and the mean pairwise distance is
// ≈ √((1−1/K)·2D + 2σ²·sub). Setting mean = RC·NN gives
//
//	σ² = D·(1−1/K) / (Q·RC² − sub).
//
// The denominator is positive only when clusters are dense enough
// (Q large enough); when the requested cluster count makes the target
// infeasible, the count is halved until it is.
func Generate(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	d, sub := spec.D, spec.SubspaceDim

	sigma, clusters := calibrate(spec)
	spec.Clusters = clusters

	centers := make([][]float64, spec.Clusters)
	bases := make([][][]float64, spec.Clusters)
	for c := range centers {
		center := make([]float64, d)
		for j := range center {
			center[j] = rng.NormFloat64()
		}
		centers[c] = center
		basis := make([][]float64, sub)
		for b := range basis {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			vec.Scale(v, v, 1/vec.Norm(v))
			basis[b] = v
		}
		bases[c] = basis
	}

	// Isotropic noise worth 5 % of the typical within-cluster pair
	// distance (σ·√(2·sub)) in total norm. Scaling per dimension by
	// 1/√d keeps the noise from dominating at high d, which would
	// otherwise inflate the measured LID toward d.
	noise := 0.05 * sigma * math.Sqrt(2*float64(sub)/float64(d))
	points := make([][]float64, spec.N)
	flat := make([]float64, spec.N*d)
	for i := range points {
		c := rng.Intn(spec.Clusters)
		p := flat[i*d : (i+1)*d : (i+1)*d]
		copy(p, centers[c])
		for _, dir := range bases[c] {
			z := rng.NormFloat64() * sigma
			for j := range p {
				p[j] += z * dir[j]
			}
		}
		for j := range p {
			p[j] += rng.NormFloat64() * noise
		}
		points[i] = p
	}
	st, err := store.FromFlat(flat, d)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return &Dataset{Spec: spec, Points: points, Store: st}, nil
}

// calibrate derives the cluster spread σ and a feasible cluster count
// for the spec's RC target (see the Generate doc comment).
func calibrate(spec Spec) (sigma float64, clusters int) {
	d := float64(spec.D)
	sub := float64(spec.SubspaceDim)
	rc := spec.RCTarget
	chi := stats.ChiSquared{K: spec.SubspaceDim}

	clusters = spec.Clusters
	// Cluster size drives the neighborhood structure that every sub-scan
	// ANN method depends on: within an s-dimensional Gaussian cluster of
	// m points, the k-NN distance grows as a power law r_k ∝ k^{1/s},
	// matching the local-intrinsic-dimensionality behavior of real
	// feature datasets. That power law must extend well past the
	// candidate budgets the algorithms use (βn ≈ 28 % for PM-LSH), so
	// clusters default to ~1000 points.
	//
	// Given the cluster size, the RC floor of the geometry is √(sub/q)
	// with q the χ²(sub) quantile at 1/m: cross-cluster distances in
	// high d are ≈ √2× the typical within-cluster radius (random
	// subspaces are nearly orthogonal), so the mean distance cannot be
	// pushed arbitrarily close to the NN distance. Targets below the
	// floor settle AT the floor (an RC overshoot that ComputeStats
	// reports honestly) rather than sacrificing cluster size.
	if clusters == 0 {
		clusters = spec.N / 1000
	}
	if clusters < 2 {
		clusters = 2
	}
	m := spec.N / clusters
	if m < 2 {
		m = 2
	}
	p := 1 / float64(m)
	if p > 0.5 {
		p = 0.5
	}
	headroom := sub / 20
	q, err := chi.Quantile(p)
	if err != nil {
		// Extreme quantile request; fall back to the scale heuristic.
		return math.Sqrt(d) / (rc * math.Sqrt(sub)), clusters
	}
	denom := q*rc*rc - sub
	if denom < headroom {
		denom = headroom // at the floor: RC overshoots the target
	}
	k := float64(clusters)
	return math.Sqrt(d * (1 - 1/k) / denom), clusters
}

// Queries draws num query points: dataset points perturbed by a quarter
// of the within-cluster nearest-neighbor distance scale (σ·√(2·sub) in
// total norm, spread over all d dimensions), mimicking the paper's
// protocol of holding out dataset members as queries while keeping each
// query inside its source's neighborhood.
func (ds *Dataset) Queries(num int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sigma, _ := calibrate(ds.Spec)
	// Per-dimension deviation such that the expected perturbation norm
	// is 0.25·σ·√(2·sub).
	perDim := 0.25 * sigma * math.Sqrt(2*float64(ds.Spec.SubspaceDim)/float64(ds.Spec.D))
	out := make([][]float64, num)
	for i := range out {
		src := ds.Points[rng.Intn(len(ds.Points))]
		q := vec.Clone(src)
		for j := range q {
			q[j] += rng.NormFloat64() * perDim
		}
		out[i] = q
	}
	return out
}

// GroundTruth computes the exact k nearest neighbors of every query by
// parallel brute force.
func GroundTruth(data [][]float64, queries [][]float64, k int) ([][]metrics.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dataset: k must be positive, got %d", k)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("dataset: empty dataset")
	}
	out := make([][]metrics.Neighbor, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for qi := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(qi int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[qi] = exactKNN(data, queries[qi], k)
		}(qi)
	}
	wg.Wait()
	return out, nil
}

// exactKNN is a single-query brute-force top-k. Distances are compared
// squared with early abandonment against the running k-th best, and the
// k square roots are taken once at the end.
func exactKNN(data [][]float64, q []float64, k int) []metrics.Neighbor {
	top := make([]metrics.Neighbor, 0, vec.PreallocCap(k, len(data))) // Dist holds squared distances until the end
	bound := math.Inf(1)
	for id, p := range data {
		d2 := vec.SquaredL2Bounded(q, p, bound)
		if len(top) == k && d2 >= bound {
			continue
		}
		top = vec.InsertBounded(top, metrics.Neighbor{ID: int32(id), Dist: d2}, k, metrics.NeighborDist)
		if len(top) == k {
			bound = top[k-1].Dist
		}
	}
	for i := range top {
		top[i].Dist = math.Sqrt(top[i].Dist)
	}
	return top
}
