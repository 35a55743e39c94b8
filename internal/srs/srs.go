// Package srs implements the SRS algorithm of Sun, Wang, Qin, Zhang and
// Lin (PVLDB 2014), the paper's strongest competitor (an MI approach,
// Section 3.1): points are projected into an m-dimensional space and
// indexed with an R-tree; a query repeatedly asks the R-tree for the
// next nearest projected point (incSearch) and verifies it in the
// original space, until either a fraction T of the dataset has been
// accessed or the χ²-based early-termination test passes.
package srs

import (
	"fmt"
	"math"

	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/vec"
)

// Defaults from the paper's Section 6.1 (values quoted for c = 1.5).
const (
	DefaultM    = 15
	DefaultPTau = 0.8107 // early-termination threshold p′_τ
	DefaultT    = 0.4010 // maximum fraction of points accessed
)

// Config controls index construction and query behavior.
type Config struct {
	// M is the projected dimensionality (0 = DefaultM; the paper uses
	// m = 15 for SRS in its experiments, though the original SRS work
	// uses m = 6).
	M int
	// Capacity is the R-tree node capacity (0 = 16).
	Capacity int
	// PTau is the early-termination probability threshold (0 =
	// DefaultPTau).
	PTau float64
	// MaxFraction is the maximum fraction of the dataset examined per
	// query, the paper's T (0 = DefaultT).
	MaxFraction float64
	// Seed drives the projection draw.
	Seed int64
}

// QueryStats reports per-query work.
type QueryStats struct {
	// Accessed is the number of points fetched from the projected-space
	// incremental search (= original-space distance computations).
	Accessed int
	// EarlyTerminated records whether the χ² test stopped the query
	// before the T·n access budget ran out.
	EarlyTerminated bool
}

// Index is an SRS index over a fixed dataset.
type Index struct {
	cfg  Config
	data [][]float64
	proj *lsh.Projection
	tree *rtree.Tree
	chi  stats.ChiSquared
	dim  int
}

// Build constructs the index; data is retained, not copied.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("srs: Build requires a non-empty dataset")
	}
	if cfg.M == 0 {
		cfg.M = DefaultM
	}
	if cfg.PTau == 0 {
		cfg.PTau = DefaultPTau
	}
	if cfg.MaxFraction == 0 {
		cfg.MaxFraction = DefaultT
	}
	if cfg.PTau <= 0 || cfg.PTau > 1 {
		return nil, fmt.Errorf("srs: PTau must be in (0,1], got %v", cfg.PTau)
	}
	if cfg.MaxFraction <= 0 || cfg.MaxFraction > 1 {
		return nil, fmt.Errorf("srs: MaxFraction must be in (0,1], got %v", cfg.MaxFraction)
	}
	dim := len(data[0])
	proj, err := lsh.NewProjection(cfg.M, dim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	projected := proj.ProjectAll(data)
	tree, err := rtree.Build(projected, nil, rtree.Config{Capacity: cfg.Capacity})
	if err != nil {
		return nil, err
	}
	return &Index{
		cfg:  cfg,
		data: data,
		proj: proj,
		tree: tree,
		chi:  stats.ChiSquared{K: cfg.M},
		dim:  dim,
	}, nil
}

// Len returns the dataset cardinality.
func (ix *Index) Len() int { return len(ix.data) }

// Dim returns the original dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Tree exposes the underlying R-tree (for the cost model comparison).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// KNN answers a (c,k)-ANN query for the c its thresholds are
// calibrated to (see KNNWithStats).
func (ix *Index) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, _, err := ix.KNNWithStats(q, k)
	return res, err
}

// KNNWithStats runs the SRS-12 style search: fetch projected
// next-nearest points one at a time, verify them in the original space,
// and stop when
//
//   - T·n points have been accessed, or
//   - Ψ_m(Δ′² / d_k²) ≥ p′_τ, where Δ′ is the projected distance of the
//     point just fetched and d_k the current k-th best original
//     distance: once the projected search ball is so large that a point
//     at distance d_k would already have been enumerated with
//     probability p′_τ, continuing is unlikely to improve the top-k.
//
// The approximation ratio c enters only through the calibration of p′_τ
// and MaxFraction (the paper quotes p′_τ = 0.8107, T = 0.4010 for
// c = 1.5, the defaults), so a query takes no c: T is the knob that
// trades quality for time.
func (ix *Index) KNNWithStats(q []float64, k int) ([]metrics.Neighbor, QueryStats, error) {
	var st QueryStats
	if len(q) != ix.dim {
		return nil, st, fmt.Errorf("srs: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, st, fmt.Errorf("srs: k must be positive, got %d", k)
	}
	qp := ix.proj.Project(q)
	it, err := ix.tree.NewIterator(qp)
	if err != nil {
		return nil, st, err
	}
	maxAccess := int(math.Ceil(ix.cfg.MaxFraction * float64(len(ix.data))))
	if maxAccess < k {
		maxAccess = k
	}

	var topk []metrics.Neighbor
	for st.Accessed < maxAccess {
		id, projDist, ok := it.Next()
		if !ok {
			break
		}
		st.Accessed++
		d := vec.L2(q, ix.data[id])
		topk = vec.InsertBounded(topk, metrics.Neighbor{ID: id, Dist: d}, k, metrics.NeighborDist)

		if len(topk) == k {
			dk := topk[k-1].Dist
			if dk == 0 {
				st.EarlyTerminated = true
				break
			}
			x := projDist * projDist / (dk * dk)
			if ix.chi.CDF(x) >= ix.cfg.PTau {
				st.EarlyTerminated = true
				break
			}
		}
	}
	return topk, st, nil
}
