// Package bench is the experiment harness: it builds every algorithm
// from the paper's evaluation over a common workload and regenerates
// each table and figure.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/e2lsh"
	"repro/internal/lscan"
	"repro/internal/metrics"
	"repro/internal/multiprobe"
	"repro/internal/qalsh"
	"repro/internal/srs"
	"repro/internal/vec"
)

// Algorithm is the common query interface the harness drives.
type Algorithm interface {
	// Name returns the display name used in tables.
	Name() string
	// KNN answers a k-nearest-neighbor query.
	KNN(q []float64, k int) ([]metrics.Neighbor, error)
}

// AlgoName enumerates the evaluated algorithms.
type AlgoName string

// The six algorithms of Table 4, plus the textbook E2LSH baseline
// (Section 2.2) every modern method refines.
const (
	PMLSH      AlgoName = "PM-LSH"
	SRS        AlgoName = "SRS"
	QALSH      AlgoName = "QALSH"
	MultiProbe AlgoName = "Multi-Probe"
	RLSH       AlgoName = "R-LSH"
	E2LSH      AlgoName = "E2LSH"
	LScan      AlgoName = "LScan"
)

// AllAlgos lists the algorithms in the paper's column order, with the
// E2LSH lineage baseline before the exact-scan reference.
func AllAlgos() []AlgoName {
	return []AlgoName{PMLSH, SRS, QALSH, MultiProbe, RLSH, E2LSH, LScan}
}

// BuildConfig carries the shared build parameters.
type BuildConfig struct {
	// C is the approximation ratio used at query time (and, for QALSH,
	// baked into the index). 0 = 1.5, the evaluation default.
	C float64
	// Seed drives every randomized component.
	Seed int64
	// QALSHMaxHashes caps QALSH's derived hash count (0 = 200).
	QALSHMaxHashes int
	// MultiProbeProbes is the per-table probe budget (0 = default).
	MultiProbeProbes int
	// LScanFraction is the scanned fraction (0 = 0.7).
	LScanFraction float64
}

func (b *BuildConfig) fill() {
	if b.C == 0 {
		b.C = 1.5
	}
}

// BuildAlgo constructs one algorithm over the dataset.
func BuildAlgo(name AlgoName, data [][]float64, cfg BuildConfig) (Algorithm, error) {
	cfg.fill()
	switch name {
	case PMLSH:
		ix, err := core.Build(data, core.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return &pmlshAdapter{ix: ix, c: cfg.C}, nil
	case RLSH:
		return BuildTreeAblation(RLSH, data, cfg)
	case SRS:
		ix, err := srs.Build(data, srs.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return &srsAdapter{ix: ix, c: cfg.C}, nil
	case QALSH:
		ix, err := qalsh.Build(data, qalsh.Config{
			C: cfg.C, Seed: cfg.Seed, MaxHashes: cfg.QALSHMaxHashes,
		})
		if err != nil {
			return nil, err
		}
		return &qalshAdapter{ix: ix}, nil
	case MultiProbe:
		ix, err := multiprobe.Build(data, multiprobe.Config{
			Seed: cfg.Seed, Probes: cfg.MultiProbeProbes,
		})
		if err != nil {
			return nil, err
		}
		return &mpAdapter{ix: ix}, nil
	case E2LSH:
		// The basic scheme needs a base radius its tables are tuned
		// for; the natural choice is the expected NN distance, which a
		// small sampled self-join estimates well enough for tuning.
		ix, err := e2lsh.Build(data, e2lsh.Config{
			R: estimateNNDistance(data, cfg.Seed), C: cfg.C, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &e2lshAdapter{ix: ix}, nil
	case LScan:
		sc, err := lscan.New(data, lscan.Config{Seed: cfg.Seed, Fraction: cfg.LScanFraction})
		if err != nil {
			return nil, err
		}
		return &lscanAdapter{sc: sc}, nil
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %q", name)
	}
}

// BuildAlgoForDataset is BuildAlgo for a generated dataset: PM-LSH
// builds directly over the dataset's contiguous store
// (core.BuildFromStore), skipping the per-row copy BuildAlgo's
// [][]float64 path pays. The harness never mutates datasets or inserts
// into the built indexes, which is what sharing the store requires.
func BuildAlgoForDataset(name AlgoName, ds *dataset.Dataset, cfg BuildConfig) (Algorithm, error) {
	if name != PMLSH {
		return BuildAlgo(name, ds.Points, cfg)
	}
	cfg.fill()
	ix, err := core.BuildFromStore(ds.Store, core.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &pmlshAdapter{ix: ix, c: cfg.C}, nil
}

// BuildAll constructs the requested algorithms (nil = all six).
func BuildAll(names []AlgoName, data [][]float64, cfg BuildConfig) ([]Algorithm, error) {
	if names == nil {
		names = AllAlgos()
	}
	out := make([]Algorithm, 0, len(names))
	for _, n := range names {
		a, err := BuildAlgo(n, data, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", n, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// BuildAllForDataset is BuildAll via BuildAlgoForDataset.
func BuildAllForDataset(names []AlgoName, ds *dataset.Dataset, cfg BuildConfig) ([]Algorithm, error) {
	if names == nil {
		names = AllAlgos()
	}
	out := make([]Algorithm, 0, len(names))
	for _, n := range names {
		a, err := BuildAlgoForDataset(n, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", n, err)
		}
		out = append(out, a)
	}
	return out, nil
}

type pmlshAdapter struct {
	ix *core.Index
	c  float64
}

func (a *pmlshAdapter) Name() string { return string(PMLSH) }
func (a *pmlshAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.ix.Search(context.Background(), q, k, core.SearchOptions{C: a.c})
	return convertCore(res), err
}

// SetC changes the query-time approximation ratio (tradeoff curves).
func (a *pmlshAdapter) SetC(c float64) { a.c = c }

type srsAdapter struct {
	ix *srs.Index
	c  float64
}

func (a *srsAdapter) Name() string { return string(SRS) }
func (a *srsAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.ix.KNN(q, k, a.c)
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

type qalshAdapter struct{ ix *qalsh.Index }

func (a *qalshAdapter) Name() string { return string(QALSH) }
func (a *qalshAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.ix.KNN(q, k)
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

// estimateNNDistance estimates the expected nearest-neighbor distance
// by an exact self-join over a bounded random sample: for each sampled
// point, the distance to its nearest other sample member, averaged.
// Deterministic given the seed; O(sample²·d) work. NewCPWorkload
// (closestpair.go) keeps its own probe-vs-full-corpus estimator on
// purpose: that one DEFINES the planted-duplicate workload, so its
// sampling cannot change without shifting every CP benchmark, while
// this one only tunes E2LSH's base radius.
func estimateNNDistance(data [][]float64, seed int64) float64 {
	const maxSample = 256
	rng := rand.New(rand.NewSource(seed + 77))
	sample := data
	if len(data) > maxSample {
		sample = make([][]float64, maxSample)
		for i, j := range rng.Perm(len(data))[:maxSample] {
			sample[i] = data[j]
		}
	}
	if len(sample) < 2 {
		return 1
	}
	var sum float64
	counted := 0
	for i, p := range sample {
		best := math.Inf(1)
		for j, q := range sample {
			if i == j {
				continue
			}
			if d2 := vec.SquaredL2Bounded(p, q, best); d2 < best {
				best = d2
			}
		}
		if best > 0 && !math.IsInf(best, 1) {
			sum += math.Sqrt(best)
			counted++
		}
	}
	if counted == 0 || sum == 0 {
		return 1
	}
	return sum / float64(counted)
}

type e2lshAdapter struct{ ix *e2lsh.Index }

func (a *e2lshAdapter) Name() string { return string(E2LSH) }
func (a *e2lshAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.ix.KNN(q, k)
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

type mpAdapter struct{ ix *multiprobe.Index }

func (a *mpAdapter) Name() string { return string(MultiProbe) }
func (a *mpAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.ix.KNN(q, k)
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

type lscanAdapter struct{ sc *lscan.Scanner }

func (a *lscanAdapter) Name() string { return string(LScan) }
func (a *lscanAdapter) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, err := a.sc.KNN(q, k)
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out, err
}

func convertCore(res []core.Result) []metrics.Neighbor {
	out := make([]metrics.Neighbor, len(res))
	for i, r := range res {
		out[i] = metrics.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out
}
