// Package core implements PM-LSH (Sections 4–5 of the paper): points
// are projected into an m-dimensional space with 2-stable hash
// functions, indexed there by a PM-tree, and (c,k)-ANN queries are
// answered by a sequence of projected range queries with radii derived
// from a tunable χ² confidence interval.
//
// The three components of the unified framework (Fig. 2) map to:
//
//   - data partitioning — the PM-tree over projections (internal/pmtree);
//   - distance estimation — the unbiased estimator r̂ = r′/√m of
//     Lemma 2 together with the confidence interval of Lemma 3;
//   - point probing — Algorithm 2's radius-enlarging loop with the
//     early-termination counts k and βn+k from Lemma 4/5.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/metrics"
	"repro/internal/pmtree"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vec"
)

// Default parameter values from the paper's experimental setup
// (Section 6.1).
const (
	// DefaultM is the number of hash functions for data of at least
	// DefaultMDim dimensions under L2 and cosine; otherwise the default
	// is the paper's 15. The larger m sharpens the projected ranking and
	// lowers β with it (see alpha2Scale), which pays where the projection
	// compresses: at d = 64, 128 and 768, m = 24 keeps m = 15's recall
	// with half the candidates verified; at d = 24 it costs a tenth of
	// recall@10, and under inner product, whose reduction flattens the
	// top ranks (see DefaultMIPAlpha1), it falls below the MIP recall
	// floor at d = 256.
	DefaultM      = 24
	DefaultMDim   = 64
	DefaultPivots = 5 // PM-tree pivots s
	DefaultAlpha1 = 1 / math.E
	// DefaultMIPAlpha1 is the confidence width used when Config.Alpha1
	// is zero and the metric is InnerProduct: the augmented transform
	// flattens top-rank contrast, so MIP needs a wider radius schedule
	// to reach comparable recall.
	DefaultMIPAlpha1  = 0.12
	DefaultC          = 1.5 // approximation ratio
	DefaultRMinShrink = 0.9 // "an r_min slightly smaller than r"

	// DefaultAutoCompactFraction is the dead-row share at which Delete,
	// and the tail share at which Insert, triggers an automatic Compact.
	DefaultAutoCompactFraction = 0.3

	// AutoCompactAlways is a sentinel for Config.AutoCompactFraction
	// meaning "compact on any dead row": every Delete that leaves at
	// least one dead row triggers a Compact. A literal 0 cannot express
	// this — the zero value must keep meaning "unset, use the default"
	// — so the sentinel is the smallest positive float64: a threshold
	// every nonzero dead fraction reaches, which round-trips through
	// serialization unchanged.
	AutoCompactAlways = math.SmallestNonzeroFloat64
)

// Config controls index construction.
type Config struct {
	// M is the number of hash functions (projected dimensionality).
	// 0 means DefaultM, or the paper's 15 for data of fewer than
	// DefaultMDim dimensions and under InnerProduct. β, the candidate
	// fraction, falls as M grows (see DeriveParams).
	M int
	// NumPivots is the PM-tree pivot count s. Negative values are
	// rejected; 0 means "use DefaultPivots" unless ExplicitZeroPivots
	// is set (s = 0 is a meaningful ablation: a plain M-tree).
	NumPivots int
	// ExplicitZeroPivots forces s = 0 when NumPivots == 0.
	ExplicitZeroPivots bool
	// Capacity is the PM-tree node capacity (0 = 16, as in the paper).
	Capacity int
	// Alpha1 is the confidence-interval parameter α1 of Lemma 4
	// (0 means 1/e, the paper's typical setting with Pr[E1] = 1−1/e).
	Alpha1 float64
	// Seed drives projection and pivot sampling; builds are fully
	// deterministic given a seed.
	Seed int64
	// DistSampleSize is the number of random point pairs sampled to
	// estimate the distance distribution F(x) used for r_min selection
	// (0 = 5000). By the DKW inequality the empirical CDF of N pairs is
	// within ε = √(ln(2/δ)/2N) of the true F everywhere with probability
	// 1 − δ: ≈ 0.023 at δ = 0.01 for the default, while r_min only has
	// to sit near the quantile (βn + k)/n, about 0.15 at the defaults.
	DistSampleSize int
	// RMinShrink scales the F-quantile radius down, implementing the
	// paper's "choose an r_min slightly smaller than r" (0 = 0.9).
	RMinShrink float64
	// Beta overrides the derived candidate fraction β (0 = derive from
	// the confidence interval; see DeriveParams for the calibration).
	Beta float64
	// AutoCompactFraction is the share at which the index compacts
	// itself: Delete triggers a Compact when the dead rows — rows whose
	// point was deleted since the last Compact — reach that share of the
	// rows, Insert when the projected-space tree's tail reaches it
	// (TailFraction). No insert refills a dead row, so under insert/delete
	// churn the dead share rises alongside the tail share instead of
	// staying near zero.
	// 0 means DefaultAutoCompactFraction; negative disables
	// auto-compaction; AutoCompactAlways compacts on any dead row and
	// leaves the tail at DefaultAutoCompactFraction (a rebuild per insert
	// is never wanted); values above 1 are rejected (neither share can
	// exceed 1).
	AutoCompactFraction float64
	// Shards is the shard count of the serving engine built by
	// BuildEngine or BuildSetsEngine (0 and 1 both mean a single shard;
	// Build ignores the field — an Index is one vector shard). See Engine
	// for the sharded concurrency model.
	Shards int
	// Metric selects the distance metric (the zero value is L2, the
	// paper's native metric). Cosine and InnerProduct run as reductions
	// onto the L2 machinery (see package metric); Jaccard is served by
	// MinHash band-LSH shards and requires BuildSetsEngine — Build and
	// BuildEngine reject it.
	Metric metric.Kind
	// MinHashBands and MinHashRows set the band-LSH signature layout
	// k = bands × rows for the Jaccard backend (0,0 = 16 × 8). Ignored
	// by the vector metrics.
	MinHashBands int
	MinHashRows  int
	// MinHashThreshold drops Jaccard results with similarity below the
	// threshold (distance above 1 − threshold). 0 keeps everything.
	// Ignored by the vector metrics.
	MinHashThreshold float64
}

// fillDefaults replaces the zero values of a configuration for rows of
// dim dimensions (the internal space's) with the defaults.
func (cfg *Config) fillDefaults(dim int) {
	if cfg.M == 0 {
		cfg.M = DefaultM
		if dim < DefaultMDim || cfg.Metric == metric.InnerProduct {
			cfg.M = paperM
		}
	}
	if cfg.NumPivots == 0 && !cfg.ExplicitZeroPivots {
		cfg.NumPivots = DefaultPivots
	}
	if cfg.Alpha1 == 0 {
		cfg.Alpha1 = DefaultAlpha1
		if cfg.Metric == metric.InnerProduct {
			// The augmented-dimension transform compresses the distance
			// contrast near the top ranks (every reduced point is a unit
			// vector, and the inner-product gap maps to a second-order
			// chord-length gap), so the paper-default confidence width
			// under-collects candidates. A smaller α1 widens the χ²
			// radius schedule; the c-guarantee is heuristic under MIP
			// either way (see the package docs), recall is what matters.
			cfg.Alpha1 = DefaultMIPAlpha1
		}
	}
	if cfg.DistSampleSize == 0 {
		cfg.DistSampleSize = 5000
	}
	if cfg.RMinShrink == 0 {
		cfg.RMinShrink = DefaultRMinShrink
	}
	if cfg.AutoCompactFraction == 0 {
		cfg.AutoCompactFraction = DefaultAutoCompactFraction
	}
}

// Result is one returned neighbor: the harness's metrics.Neighbor, so
// an answer is scored (Eqs. 11–12) as it is returned.
type Result = metrics.Neighbor

// QueryStats reports the work one query performed.
type QueryStats struct {
	// Rounds is the number of range queries issued (the paper observes
	// "only one or two range queries are required").
	Rounds int
	// Verified is the number of original-space distance computations.
	Verified int
	// ProjectedDistComps is the number of projected-space metric
	// evaluations. A Search pays exactly the tree's rows, dead ones
	// included: its rounds are one flat pass, however small its first
	// radius. A SearchBall under the tree's switch radius pays one
	// traversal — pivots, routing objects, unpruned leaf entries, the
	// tail. A projected point is "within r" when sqrt(d²) ≤ r on the flat
	// pass's squared distance; the traversal is an accelerator tested
	// against that. The enumerator counts its own evaluations, so the
	// count is exact however many queries overlap.
	ProjectedDistComps int64
	// FinalRadius is the original-space radius r when the query
	// terminated.
	FinalRadius float64
}

// Params bundles the derived confidence-interval constants for an
// approximation ratio c (Eq. 10 and Lemma 5).
type Params struct {
	T      float64 // projected radius multiplier t = sqrt(χ²_{α1}(m))
	Alpha1 float64
	Alpha2 float64 // CDF_{χ²(m)}(κ·χ²_{1/e}(m)/c²), a function of m and c (see DeriveParams)
	Beta   float64 // 2·α2, the candidate-fraction bound
}

// Index is a PM-LSH index over a mutable vector dataset: the paper's
// index, and one shard of a vector Engine (a Jaccard engine's shards are
// MinHash band indexes, see jaccard.go).
//
// Every public method is safe for concurrent use, and a query never
// waits on a mutation. The index publishes one immutable view of itself
// through an atomic pointer; a query — Search, SearchBatch once for the
// whole batch, SearchBall, SearchPairs, WriteTo, every getter — loads it
// and reads nothing else that changes, so it sees one state from start
// to end and never a half-applied mutation. Insert, Delete and Compact
// take turns on a writer mutex and publish the next view
// with one atomic store. Engine's "Concurrency model" says why that is
// safe: between two compactions inserts only append, a delete is a
// delete epoch, and nothing a view holds is rewritten but the PM-tree's
// structure, bulk loaded once, by the first query that reads it.
//
// Ids are stable: Insert assigns them from a monotone counter and they
// are never reused or remapped — not by Delete, not by Compact. The
// id → storage-row indirection (rowOf) is what lets Compact repack the
// contiguous store while every caller-held id stays valid.
type Index struct {
	cfg  Config // as built or loaded; nothing writes it afterwards
	proj *lsh.Projection

	// dim is the dimensionality of the internal (reduced) space the
	// store, projection and tree operate in; ndim is the native
	// dimensionality callers see. They coincide except under the
	// InnerProduct reduction, whose augmented transform adds one
	// coordinate (dim == ndim + 1).
	dim  int
	ndim int

	// metric is the native metric this index serves (metric.L2 unless
	// built otherwise); mipScale is the InnerProduct reduction's
	// build-time norm bound S (0 for every other metric).
	metric   metric.Kind
	mipScale float64

	t   float64 // sqrt of upper χ²_{α1}(m) quantile
	chi stats.ChiSquared
	// a2scale is the β rule: α2(c) = CDF_χ²(m)(a2scale/c²) (see
	// alpha2Scale). Snapshot headers carry it; a loaded index keeps it.
	a2scale float64

	// view is the published state: what every reader loads, and what the
	// writer derives the next state from.
	view atomic.Pointer[view]

	// wmu serializes the mutations. data (the internal-space points) and
	// tree (over their projections) are the writer's, touched only under
	// it; readers use the view's cuts of them.
	wmu  sync.Mutex
	data *store.Store
	tree *pmtree.Tree

	onCompact atomic.Pointer[func(time.Duration)] // see Engine.OnCompact

	// scratch pools the per-query state (projected-query buffer, range
	// enumerator, per-round id buffer) so queries from multiple
	// goroutines never share mutable state and steady-state queries
	// allocate only their k-result output slice.
	scratch sync.Pool
}

// view is one immutable state of a vector index: everything a query
// reads that a mutation can change. No slice is ever written below the
// length it has here; the next view shares the arrays and extends them,
// or — after Compact — holds fresh ones.
type view struct {
	flat []float64 // the data rows: row r is flat[r*dim:(r+1)*dim]
	// rowOf maps an id to its row in flat; the next Insert gets id
	// len(rowOf). A deleted id keeps its row until Compact leaves it out
	// (-1 from then on): whether an id is live is the tree's to say.
	rowOf []int32
	// tree is a pmtree.Tree.Snapshot: its epoch is the view's, its Len
	// the view's live count, its Rows those of flat — so the rows it does
	// not count live are the dead ones.
	tree *pmtree.Tree
	// distCDF is the sorted sample of original-space pairwise distances
	// r_min is read from: drawn at Build and Compact, read by Load, frozen
	// in between — at most the tail's share of the rows post-dates it, and
	// it only picks Algorithm 2's first radius.
	distCDF []float64
	// compactions counts completed Compacts, explicit and automatic, since
	// Build or Load (it is not serialized).
	compactions int64
}

// live is the number of live points.
func (v *view) live() int { return v.tree.Len() }

// tailFraction is the share of the PM-tree's rows that sit in its tail:
// points inserted since the generation began, which a traversal
// brute-forces (a Search scans the rows anyway). 0 after Build and
// Compact; a loaded index has the share it was saved with.
func (v *view) tailFraction() float64 {
	if rows := v.tree.Rows(); rows > 0 {
		return float64(v.tree.Tail()) / float64(rows)
	}
	return 0
}

// dead is the number of rows whose point was deleted since the last
// Compact: rows the tree holds but does not count live.
func (v *view) dead() int { return v.tree.Rows() - v.tree.Len() }

// deadFraction is the dead share of the rows: what Delete's
// auto-compaction watches, as tailFraction is Insert's.
func (v *view) deadFraction() float64 {
	if rows := v.tree.Rows(); rows > 0 {
		return float64(v.dead()) / float64(rows)
	}
	return 0
}

// load returns the published view.
func (ix *Index) load() *view { return ix.view.Load() }

// addInfo adds this shard's figures, all read from one view, to info.
func (ix *Index) addInfo(info *EngineInfo, s int) {
	v := ix.view.Load()
	info.TailFraction[s] = v.tailFraction()
	info.DeadFraction[s] = v.deadFraction()
	info.IDs += len(v.rowOf)
	info.Live += v.live()
	info.Dead += v.dead()
	info.Compactions += v.compactions
}

func (ix *Index) observe(fn *func(time.Duration)) { ix.onCompact.Store(fn) }

// publish makes the writer's store and tree as they stand, with the
// given id map, distance sample and compaction count, the state queries
// load from now on. The caller holds wmu or is still building the index.
func (ix *Index) publish(rowOf []int32, distCDF []float64, compactions int64) {
	ix.view.Store(&view{
		flat:        ix.data.Flat(),
		rowOf:       rowOf,
		tree:        ix.tree.Snapshot(),
		distCDF:     distCDF,
		compactions: compactions,
	})
}

// queryScratch holds one query's reusable state: the projected query
// buffer, the range enumerator (the projected rows' squared distances
// and the round's delta), the current round's selected ids, the
// verifier's block and the query's helper. Everything is reused across
// queries; no per-point marks are needed because the enumerator hands
// out each point at most once per query.
type queryScratch struct {
	qp     []float64
	pmEnum pmtree.RangeEnumerator
	ids    []int32
	blk    verifyBlock // the verifier's gathered block
	help   queryHelper
}

// getScratch returns a pooled scratch.
func (ix *Index) getScratch() *queryScratch {
	s, _ := ix.scratch.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	return s
}

// putScratch releases the enumerator's tree/query references (a pooled
// scratch must not pin a view) and returns the scratch to the pool.
// Buffer capacity is kept unless it has outgrown the index: a pool never
// frees, so after one large-n burst every pooled scratch would pin its
// high-water memory for good. A query is handed each live point at most
// once, so capacity beyond twice the live count it ran over (plus slack
// to keep small indexes' buffers warm) is shed, as the enumerator's
// Release sheds its own.
func (ix *Index) putScratch(s *queryScratch, live int) {
	s.pmEnum.Release()
	if cap(s.ids) > 2*live+1024 {
		s.ids = nil
	}
	ix.scratch.Put(s)
}

// Published operating point (paper Section 6.1): m = 15, and "we set …
// α1 = 1/e, so α2 = 0.1405 and β = 0.2809 are obtained according to
// Eq. 10".
const (
	paperM      = 15
	paperAlpha2 = 0.1405
	paperC      = 1.5
)

// paperKappa is κ ≈ 1.2949, the one calibration of Eq. 10 (see
// alpha2Scale). A literal reading of Eq. 10 gives α2 = CDF_χ²(m)(t²/c²)
// with t² = χ²_{α1}(m), the upper α1-quantile: CDF(7.21) ≈ 0.048 at the
// published point, where the paper states 0.1405 and reports the recall
// of the larger candidate budget. κ scales the CDF argument so that the
// published point comes out.
var paperKappa = publishedScale(paperM) / upperChi2(paperM, DefaultAlpha1)

// publishedScale is χ²⁻¹_m(0.1405)·1.5²: the CDF argument at c = 1 that
// puts α2(1.5) at the published 0.1405 for χ²(m).
func publishedScale(m int) float64 {
	x, _ := stats.ChiSquared{K: m}.Quantile(paperAlpha2) // no error in range
	return x * paperC * paperC
}

// upperChi2 is χ²_α(m), the upper α-quantile of χ²(m) (m ≥ 1, 0 < α < 1).
func upperChi2(m int, alpha float64) float64 {
	x, _ := stats.ChiSquared{K: m}.UpperQuantile(alpha) // no error in range
	return x
}

// alpha2Scale returns x(m), the CDF argument of the α2 rule at c = 1:
// α2(m, c) = CDF_χ²(m)(x(m)/c²) and β = 2α2 (Eq. 10, Lemma 5), where
//
//	x(m) = κ·χ²_{1/e}(m)
//
// — Eq. 10's t² at the paper's α1 = 1/e, times paperKappa. α1 does not
// enter β, whatever α1 the index or a query runs at: α1 sets the
// projected radius t = sqrt(χ²_{α1}(m)) alone. At m = 15 the rule gives
// the published α2 = 0.1405 at c = 1.5, and the published point's β for
// every c; β falls as m grows, through χ²(m) as Eq. 10 says — 0.195,
// 0.147 and 0.097 at m = 20, 24 and 30 (c = 1.5).
//
// perM is the rule before it (streams older than PLS8, see
// serialize.go): κ re-solved at every m so that α2(1.5) = 0.1405, i.e.
// x(m) = publishedScale(m), and β = 0.281 at every m. At m = 15 the
// two agree; an index loaded from such a stream keeps its rule.
func alpha2Scale(m int, perM bool) float64 {
	if perM {
		return publishedScale(m)
	}
	return paperKappa * upperChi2(m, DefaultAlpha1)
}

// CandidateFraction returns β = 2α2 for m hash functions at
// approximation ratio c > 1, the rule DeriveParams applies (see
// alpha2Scale): for code that runs Algorithm 2 outside an Index.
func CandidateFraction(m int, c float64) float64 {
	return 2 * stats.ChiSquared{K: m}.CDF(alpha2Scale(m, false)/(c*c))
}

// Build constructs the index over data. The rows are copied once into
// a contiguous store; the input slices are not retained and may be
// mutated afterwards. Under the Cosine and InnerProduct metrics the
// rows are first reduced to the internal L2 space (see package
// metric); Jaccard data is set-shaped and must go through
// BuildSetsEngine.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: Build requires a non-empty dataset")
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("core: unknown metric %d", uint8(cfg.Metric))
	}
	if cfg.Metric == metric.Jaccard {
		return nil, fmt.Errorf("core: the jaccard metric indexes sets, not vectors; use BuildSetsEngine")
	}
	rows, scale, err := reduceRows(data, cfg.Metric)
	if err != nil {
		return nil, err
	}
	return buildRows(rows, cfg, scale)
}

// buildRows copies internal-space rows, which must share one positive
// dimension, into a fresh store by fillRows and builds over it.
func buildRows(rows [][]float64, cfg Config, scale float64) (*Index, error) {
	dim := len(rows[0])
	if dim == 0 {
		return nil, fmt.Errorf("core: store: rows must be non-empty")
	}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("core: store: row %d has dimension %d, want %d", i, len(r), dim)
		}
	}
	flat := make([]float64, len(rows)*dim)
	if err := fillRows(flat, dim, func(i int) []float64 { return rows[i] }); err != nil {
		return nil, err
	}
	s, _ := store.FromFlat(flat, dim) // dim > 0, and flat holds whole rows
	return buildInternal(s, cfg, scale)
}

// reduceRows maps native-metric rows into the internal L2 space:
// Cosine normalizes each row (zero rows are rejected — they have no
// direction), InnerProduct applies the augmented-dimension transform
// x → [x/S, √(1−‖x/S‖²)] with S the largest row norm, and L2 returns
// the input untouched. The returned scale is S for InnerProduct and 0
// otherwise.
func reduceRows(data [][]float64, m metric.Kind) ([][]float64, float64, error) {
	switch m {
	case metric.L2:
		return data, 0, nil
	case metric.Cosine:
		out := make([][]float64, len(data))
		for i, row := range data {
			r, err := normalizeRow(row)
			if err != nil {
				return nil, 0, fmt.Errorf("row %d: %w", i, err)
			}
			out[i] = r
		}
		return out, 0, nil
	case metric.InnerProduct:
		scale := 0.0
		for i, row := range data {
			n := vec.Norm(row)
			if math.IsInf(n, 0) || math.IsNaN(n) {
				return nil, 0, fmt.Errorf("core: row %d has non-finite norm", i)
			}
			scale = math.Max(scale, n)
		}
		if scale == 0 {
			return nil, 0, fmt.Errorf("core: inner-product build requires at least one non-zero row")
		}
		out := make([][]float64, len(data))
		for i, row := range data {
			out[i] = augmentRow(row, scale)
		}
		return out, scale, nil
	}
	return nil, 0, fmt.Errorf("core: metric %v is not a vector reduction", m)
}

// normalizeRow returns row scaled to unit L2 norm (a copy).
func normalizeRow(row []float64) ([]float64, error) {
	n := vec.Norm(row)
	if n == 0 || math.IsInf(n, 0) || math.IsNaN(n) {
		return nil, fmt.Errorf("core: cosine metric rejects vectors with norm %v — no direction", n)
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = v / n
	}
	return out, nil
}

// augmentRow applies the MIP transform: [x/S, √(max(0, 1−‖x/S‖²))].
// The clamp only absorbs float rounding — callers verify ‖x‖ ≤ S.
func augmentRow(row []float64, scale float64) []float64 {
	out := make([]float64, len(row)+1)
	u2 := 0.0
	for j, v := range row {
		s := v / scale
		out[j] = s
		u2 += s * s
	}
	out[len(row)] = math.Sqrt(math.Max(0, 1-u2))
	return out
}

// reducePoint maps one native-metric row into the index's internal
// space (see reduceRows). Every metric refuses a row without a finite
// norm (finiteNorm). Under InnerProduct, rows whose norm exceeds
// the build-time scale S are rejected — the augmented coordinate
// would be imaginary — so callers must rebuild to admit longer
// vectors (a tiny relative tolerance absorbs float rounding).
func (ix *Index) reducePoint(p []float64) ([]float64, error) {
	switch ix.metric {
	case metric.L2:
		if !finiteNorm(p) {
			return nil, fmt.Errorf("core: point has a NaN or infinite component, or a norm beyond float64")
		}
		return p, nil
	case metric.Cosine:
		return normalizeRow(p)
	case metric.InnerProduct:
		n := vec.Norm(p)
		if math.IsInf(n, 0) || math.IsNaN(n) {
			return nil, fmt.Errorf("core: point has non-finite norm")
		}
		if n > ix.mipScale*(1+1e-12) {
			return nil, fmt.Errorf("core: inner-product insert norm %v exceeds the build-time scale %v; rebuild to admit longer vectors", n, ix.mipScale)
		}
		return augmentRow(p, ix.mipScale), nil
	}
	return nil, fmt.Errorf("core: metric %v is not a vector reduction", ix.metric)
}

// buildInternal builds over a store already holding internal-space
// rows, each checked by fillRows. scale is the MIP norm bound S; the
// native dimensionality is s.Dim(), one fewer under the InnerProduct
// augmentation.
func buildInternal(s *store.Store, cfg Config, scale float64) (*Index, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("core: Build requires a non-empty dataset")
	}
	cfg.fillDefaults(s.Dim())
	if cfg.NumPivots < 0 {
		return nil, fmt.Errorf("core: NumPivots must be >= 0, got %d", cfg.NumPivots)
	}
	if cfg.Alpha1 <= 0 || cfg.Alpha1 >= 1 {
		return nil, fmt.Errorf("core: Alpha1 must be in (0,1), got %v", cfg.Alpha1)
	}
	if cfg.RMinShrink <= 0 || cfg.RMinShrink > 1 {
		return nil, fmt.Errorf("core: RMinShrink must be in (0,1], got %v", cfg.RMinShrink)
	}
	if cfg.AutoCompactFraction > 1 {
		return nil, fmt.Errorf("core: AutoCompactFraction must be <= 1, got %v", cfg.AutoCompactFraction)
	}
	dim, ndim := s.Dim(), s.Dim()
	if cfg.Metric == metric.InnerProduct {
		ndim-- // the augmented coordinate
	}

	proj, err := lsh.NewProjection(cfg.M, dim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tree, distCDF, err := buildTree(proj, s, nil, cfg)
	if err != nil {
		return nil, err
	}

	chi := stats.ChiSquared{K: cfg.M}
	q, err := chi.UpperQuantile(cfg.Alpha1)
	if err != nil {
		return nil, fmt.Errorf("core: deriving t: %w", err)
	}

	t := math.Sqrt(q)

	rowOf := make([]int32, s.Len())
	for i := range rowOf {
		rowOf[i] = int32(i)
	}
	ix := &Index{
		cfg:      cfg,
		data:     s,
		proj:     proj,
		tree:     tree,
		dim:      dim,
		ndim:     ndim,
		metric:   cfg.Metric,
		mipScale: scale,
		t:        t,
		chi:      chi,
		a2scale:  alpha2Scale(cfg.M, false),
	}
	ix.publish(rowOf, distCDF, 0)
	return ix, nil
}

// buildTree is the part of a build that grows with the data, over a
// store just filled or repacked (every row live; ids as in
// pmtree.BuildFromStore): the rows are projected on GOMAXPROCS
// goroutines while the F(x) sample, which needs only the store, is
// drawn beside them. The PM-tree adopts the projected rows and is bulk
// loaded by the first query that reads its structure; an empty store
// makes an empty, pivot-less tree, the next Compact re-selecting them.
func buildTree(proj *lsh.Projection, s *store.Store, ids []int32, cfg Config) (*pmtree.Tree, []float64, error) {
	sampled := make(chan []float64)
	go func() { sampled <- sampleDistanceDistribution(s, cfg) }()
	tree, err := projectTree(proj, s, ids, s.Len(), cfg)
	// The one return: the sampling goroutine is joined on an error too.
	return tree, <-sampled, err
}

// projectTree projects the rows of s straight into a PM-tree bulk loaded
// on first use, on GOMAXPROCS goroutines (pmtree.NewDeferredFunc), with
// no store of the float64 projections between: the first frozen rows
// are its generation, the rest its tail (ids as pmtree.NewDeferred takes
// them). A build's tree and a loaded one come out of it alike.
func projectTree(proj *lsh.Projection, s *store.Store, ids []int32, frozen int, cfg Config) (*pmtree.Tree, error) {
	project := func(dst []float64, i int) { proj.ProjectTo(dst, s.Row(i)) }
	return pmtree.NewDeferredFunc(s.Len(), proj.M(), project, ids, frozen, pmtree.Config{
		Capacity:  cfg.Capacity,
		NumPivots: cfg.NumPivots,
		PivotSeed: cfg.Seed + 1,
	})
}

// finiteNorm reports whether p's Euclidean norm is a finite number: no
// component is NaN or ±Inf and their squares do not overflow. A vector
// without one is at distance NaN or +Inf from everything. (The squared
// norm through the dot kernel: every query pays this.)
func finiteNorm(p []float64) bool {
	n2 := vec.Dot(p, p)
	return !math.IsInf(n2, 0) && !math.IsNaN(n2)
}

// fillRows is the one pass over a store's rows at build, compaction and
// load, on GOMAXPROCS goroutines over disjoint row ranges: each copies
// row(i) into row i of flat — unless row is nil, when flat holds the
// rows already — and checks that it has a finite norm while it is still
// in cache: every row goes into the tree's projection, where a NaN is a
// NaN distance on every query that reads it. The error names the lowest
// row without one.
func fillRows(flat []float64, dim int, row func(i int) []float64) error {
	n, procs := len(flat)/dim, runtime.GOMAXPROCS(0)
	per := max(1, (n+procs-1)/procs)
	bad := make([]int, (n+per-1)/per) // each range's first bad row, or -1
	var wg sync.WaitGroup
	for w := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad[w] = -1
			for i := w * per; i < min((w+1)*per, n); i++ {
				dst := flat[i*dim : (i+1)*dim]
				if row != nil {
					copy(dst, row(i))
				}
				if !finiteNorm(dst) {
					bad[w] = i
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, i := range bad {
		if i >= 0 {
			return fmt.Errorf("core: row %d has a NaN or infinite component, or a norm beyond float64", i)
		}
	}
	return nil
}

// prepare is the one validation step between a caller's point and the
// index: dimension, the metric's reduction (which refuses a vector
// without a finite norm), and a finite projection. It returns the point
// in the internal space and its projection; nothing has changed when it
// fails, so Insert runs it first, and the engine runs it before a
// write-ahead log sees the point.
func (ix *Index) prepare(p []float64) (reduced, projected []float64, err error) {
	if len(p) != ix.ndim {
		return nil, nil, fmt.Errorf("core: point has dimension %d, index expects %d", len(p), ix.ndim)
	}
	if reduced, err = ix.reducePoint(p); err != nil {
		return nil, nil, err
	}
	if projected = ix.proj.Project(reduced); !finite(projected) {
		return nil, nil, fmt.Errorf("core: point overflows the projection")
	}
	return reduced, projected, nil
}

// check is prepare's verdict alone.
func (ix *Index) check(p []float64) error {
	_, _, err := ix.prepare(p)
	return err
}

// Insert adds one point to the index and returns its assigned id — the
// next value of a monotone counter, never a reused one. The point's row
// is appended to the store and its projection to the tree's tail (see
// pmtree): nothing a running query reads is touched, every query that
// starts after Insert returns covers the point, and when the tail
// reaches Config.AutoCompactFraction of the tree's rows the index
// compacts itself before returning — the one insert in very many that
// pays a repack and a projection.
func (ix *Index) Insert(p []float64) (int32, error) {
	p, projected, err := ix.prepare(p)
	if err != nil {
		return 0, err
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	cur := ix.view.Load()
	id := int32(len(cur.rowOf))
	if err := ix.tree.Insert(projected, id); err != nil {
		return 0, err
	}
	row, err := ix.data.Append(p)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	// Published before any compaction: should that fail, the index stands
	// valid, merely uncompacted.
	ix.publish(append(cur.rowOf, row), cur.distCDF, cur.compactions)

	if f := ix.cfg.AutoCompactFraction; f > 0 {
		if f == AutoCompactAlways {
			f = DefaultAutoCompactFraction
		}
		if float64(ix.tree.Tail())/float64(ix.tree.Rows()) >= f {
			return id, ix.compactLocked()
		}
	}
	return id, nil
}

// Delete removes the point with the given id: the tree stamps it with a
// delete epoch, the one record of its death. The id stays retired
// forever — later Inserts get fresh ids — and the point's row stays,
// dead, until the next Compact drops it. A query that loaded its view
// before Delete returns finishes on the state it began with and may
// still return the point; none that starts afterwards does. When the
// dead share of the rows reaches Config.AutoCompactFraction the index
// compacts itself before returning.
func (ix *Index) Delete(id int32) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	cur := ix.view.Load()
	if id < 0 || int(id) >= len(cur.rowOf) {
		return fmt.Errorf("core: Delete of unknown id %d (ids assigned so far: %d)", id, len(cur.rowOf))
	}
	if !ix.tree.IsLive(id) {
		return fmt.Errorf("core: id %d is already deleted", id)
	}
	if err := ix.tree.Delete(id); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ix.publish(cur.rowOf, cur.distCDF, cur.compactions)
	if f := ix.cfg.AutoCompactFraction; f > 0 && ix.view.Load().deadFraction() >= f {
		return ix.compactLocked()
	}
	return nil
}

// Compact rebuilds the index over its live points: the contiguous
// store is repacked (dead rows dropped, rows in id order) and
// projected, which starts a new generation of the projected-space tree —
// the only way its structure ever changes: the tail of points inserted
// since moves under leaves (TailFraction back to 0), dead rows are left
// out, and covering radii and rings are exact for the points now live,
// once the first query that needs the structure bulk loads it — and the
// distance distribution is resampled. Ids are preserved. Everything is
// built in fresh arrays and published at the end: queries keep answering
// from the view they hold, other mutations wait.
func (ix *Index) Compact() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.compactLocked()
}

// compactLocked is Compact with wmu held, over the published state
// (which the writer's store and tree stand at). It publishes the
// compacted one; on error nothing has changed.
func (ix *Index) compactLocked() error {
	start := time.Now()
	cur := ix.view.Load()
	fresh, ids, rowOf, err := ix.repack(cur)
	if err != nil {
		return err
	}
	tr, distCDF, err := buildTree(ix.proj, fresh, ids, ix.cfg)
	if err != nil {
		return err
	}
	ix.tree, ix.data = tr, fresh
	ix.publish(rowOf, distCDF, cur.compactions+1)
	if fn := ix.onCompact.Load(); fn != nil {
		(*fn)(time.Since(start))
	}
	return nil
}

// repack copies the live rows, in id order — storage order too, rows
// being appended an id with each (a stream written while Insert refilled
// dead rows loads in another order, and leaves it here) — into a fresh
// store by fillRows, with their ids and each id's new row.
func (ix *Index) repack(cur *view) (s *store.Store, ids, rowOf []int32, err error) {
	ids = make([]int32, 0, ix.tree.Len())
	rowOf = make([]int32, len(cur.rowOf))
	for id := range cur.rowOf {
		rowOf[id] = -1
		if ix.tree.IsLive(int32(id)) {
			rowOf[id] = int32(len(ids))
			ids = append(ids, int32(id))
		}
	}
	flat := make([]float64, len(ids)*ix.dim)
	err = fillRows(flat, ix.dim, func(i int) []float64 { return ix.data.Row(int(cur.rowOf[ids[i]])) })
	s, _ = store.FromFlat(flat, ix.dim) // dim > 0, and flat holds whole rows
	return s, ids, rowOf, err
}

// SampleDistances is the F(x) sample Build draws (paper Eq. 4), taken
// over plain rows: the sorted distances of samples random pairs of
// distinct rows (≤ 0 = Config.DistSampleSize's default), the pairs
// drawn from a generator seeded with seed — a build seeds its own with
// Config.Seed + 2. The evaluation's Algorithm 2 and Table 2's cost model
// read it, so their F(x) is sampled as the index's is.
func SampleDistances(rows [][]float64, samples int, seed int64) []float64 {
	cfg := Config{DistSampleSize: max(samples, 0), Seed: seed - 2}
	cfg.fillDefaults(0)
	return sampleDistanceDistribution(rowSlice(rows), cfg)
}

// rowSlice reads plain rows as the sample reads a store.
type rowSlice [][]float64

func (r rowSlice) Len() int            { return len(r) }
func (r rowSlice) Row(i int) []float64 { return r[i] }

// sampleDistanceDistribution draws cfg.DistSampleSize random pairs of
// s's rows (a store just built or repacked, every row live; 5 000 pairs
// by default, sized by the DKW bound in that field's doc) and returns
// their sorted original-space distances as an empirical F(x) (paper
// Eq. 4), used to pick r_min such that n·F(r_min) ≈ βn + k. The high
// HV of real datasets (Table 3) is what justifies using a global F for
// every query point. The pairs come off one seeded generator in order
// and their distances are computed in GOMAXPROCS chunks, so the sample
// is the same at any parallelism; sortDistances orders it.
func sampleDistanceDistribution[S interface {
	Len() int
	Row(i int) []float64
}](s S, cfg Config) []float64 {
	n := s.Len()
	samples := min(cfg.DistSampleSize, n*(n-1)/2)
	if samples == 0 {
		return []float64{1}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	pairs := make([][2]int32, samples)
	for k := 0; k < samples; {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			pairs[k] = [2]int32{int32(i), int32(j)}
			k++
		}
	}
	out := make([]float64, samples)
	per := (samples + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for lo := 0; lo < samples; lo += per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := lo; k < min(lo+per, samples); k++ {
				out[k] = vec.L2(s.Row(int(pairs[k][0])), s.Row(int(pairs[k][1])))
			}
		}()
	}
	wg.Wait()
	sortDistances(out)
	return out
}

// sortDistances sorts non-negative distances ascending, as sort.Float64s
// does, in a few linear passes: an LSD radix sort on their IEEE-754
// bits, which order non-negative floats as their values, skipping a
// byte every key shares. On the default 5 000-pair sample it saves
// 0.3–0.4 ms of slices.Sort's time per shard.
func sortDistances(a []float64) {
	src, dst := a, make([]float64, len(a))
	for shift := 0; shift < 64 && len(a) > 0; shift += 8 {
		var at [256]int
		for _, x := range src {
			at[byte(math.Float64bits(x)>>shift)]++
		}
		if at[byte(math.Float64bits(src[0])>>shift)] == len(src) {
			continue
		}
		for b, sum := 0, 0; b < len(at); b++ {
			at[b], sum = sum, sum+at[b]
		}
		for _, x := range src {
			b := byte(math.Float64bits(x) >> shift)
			dst[at[b]] = x
			at[b]++
		}
		src, dst = dst, src
	}
	copy(a, src)
}

// distQuantile returns the empirical F⁻¹(p) of a sorted distance
// sample (an Index's distCDF, or several shards' merged).
func distQuantile(cdf []float64, p float64) float64 {
	if len(cdf) == 0 {
		return 1
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	i := int(p * float64(len(cdf)-1))
	return cdf[i]
}

// DeriveParams computes t, α2 and β for a given approximation ratio c
// per Eq. 10: t² = χ²_{α1}(m), and α2 = CDF_{χ²(m)}(κ·χ²_{1/e}(m)/c²),
// β = 2α2 (Lemma 5). κ is fixed once at the paper's published operating
// point (m = 15, α1 = 1/e, c = 1.5, α2 = 0.1405; Section 6.1), so β is a
// function of m and c: it falls as m grows, and α1 does not enter it
// (see alpha2Scale; an index loaded from a stream older than PLS8 keeps
// the rule it was saved with). Config.Beta, when set, overrides β
// entirely.
func (ix *Index) DeriveParams(c float64) (Params, error) {
	if !(c > 1) { // NaN included
		return Params{}, fmt.Errorf("core: approximation ratio c must exceed 1, got %v", c)
	}
	alpha2 := ix.chi.CDF(ix.a2scale / (c * c))
	beta := 2 * alpha2
	if ix.cfg.Beta > 0 {
		beta = ix.cfg.Beta
	}
	return Params{
		T:      ix.t,
		Alpha1: ix.cfg.Alpha1,
		Alpha2: alpha2,
		Beta:   beta,
	}, nil
}

// Len returns the size of the id space: the number of ids ever
// assigned (every id in [0, Len()) was, at some point, a live point).
// With no deletions this equals the dataset cardinality; use LiveLen
// for the live count under churn.
func (ix *Index) Len() int {
	return len(ix.view.Load().rowOf)
}

// LiveLen returns the number of live (not deleted) points.
func (ix *Index) LiveLen() int {
	return ix.view.Load().live()
}

// IsLive reports whether id refers to a live (inserted and not yet
// deleted) point.
func (ix *Index) IsLive(id int32) bool {
	return ix.view.Load().tree.IsLive(id)
}

// Dim returns the native dimensionality callers index and query with
// (the internal reduced space may differ; see Index.dim).
func (ix *Index) Dim() int { return ix.ndim }

// Metric returns the native metric this index serves.
func (ix *Index) Metric() metric.Kind { return ix.metric }

// M returns the projected dimensionality (number of hash functions).
func (ix *Index) M() int { return ix.cfg.M }

// T returns the confidence-interval multiplier t.
func (ix *Index) T() float64 { return ix.t }

// Tree exposes the PM-tree of the current view (for the cost model and
// tests): a read-only snapshot of that moment's points, whatever is
// inserted, deleted or compacted afterwards, whose structure is bulk
// loaded the first time anything reads it.
func (ix *Index) Tree() *pmtree.Tree {
	return ix.view.Load().tree
}

// Project maps a point into the projected space.
func (ix *Index) Project(q []float64) []float64 { return ix.proj.Project(q) }

// startEnum projects a reduced query into the scratch's reusable buffer
// and binds the scratch's range enumerator to it over the view's tree:
// for flat passes, or for traversals when traverse is set. No radius
// means anything when the projection overflows.
func (ix *Index) startEnum(sc *queryScratch, tree *pmtree.Tree, q []float64, traverse bool) (*pmtree.RangeEnumerator, error) {
	if cap(sc.qp) < ix.cfg.M {
		sc.qp = make([]float64, ix.cfg.M)
	} else {
		sc.qp = sc.qp[:ix.cfg.M]
	}
	ix.proj.ProjectTo(sc.qp, q)
	if !finite(sc.qp) {
		return nil, fmt.Errorf("core: query overflows the projection")
	}
	if traverse {
		return &sc.pmEnum, sc.pmEnum.ResetTree(tree, sc.qp)
	}
	return &sc.pmEnum, sc.pmEnum.Reset(tree, sc.qp)
}

// smallestPositiveDistance returns the smallest non-zero distance of a
// sorted sample (fallback for datasets dominated by duplicates).
func smallestPositiveDistance(cdf []float64) float64 {
	for _, d := range cdf {
		if d > 0 {
			return d
		}
	}
	return 1e-9
}

// insertCandidate keeps cand sorted by metrics.CompareNeighbors and
// capped at k entries; an r that does not make the top k leaves it
// unchanged. Two candidates at exactly the same distance rank by id,
// whichever was verified first.
func insertCandidate(cand []Result, r Result, k int) []Result {
	i := sort.Search(len(cand), func(j int) bool { return metrics.CompareNeighbors(cand[j], r) > 0 })
	if i >= k {
		return cand
	}
	if len(cand) < k {
		cand = append(cand, Result{})
	}
	copy(cand[i+1:], cand[i:])
	cand[i] = r
	return cand
}

// kthWithin reports whether at least k candidates lie within radius
// (cand and radius in the same units — squared distances here).
func kthWithin(cand []Result, k int, radius float64) bool {
	return len(cand) >= k && cand[k-1].Dist <= radius
}
