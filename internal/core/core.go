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
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/pmtree"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vec"
)

// Default parameter values from the paper's experimental setup
// (Section 6.1).
const (
	DefaultM      = 15 // number of hash functions
	DefaultPivots = 5  // PM-tree pivots s
	DefaultAlpha1 = 1 / math.E
	// DefaultMIPAlpha1 is the confidence width used when Config.Alpha1
	// is zero and the metric is InnerProduct: the augmented transform
	// flattens top-rank contrast, so MIP needs a wider radius schedule
	// to reach comparable recall.
	DefaultMIPAlpha1  = 0.12
	DefaultC          = 1.5 // approximation ratio
	DefaultRMinShrink = 0.9 // "an r_min slightly smaller than r"

	// DefaultAutoCompactFraction is the tombstone share at which Delete,
	// and the tail share at which Insert, triggers an automatic Compact.
	DefaultAutoCompactFraction = 0.3

	// AutoCompactAlways is a sentinel for Config.AutoCompactFraction
	// meaning "compact on any tombstone": every Delete that leaves at
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
	// 0 means DefaultM.
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
	// (0 = 50000).
	DistSampleSize int
	// RMinShrink scales the F-quantile radius down, implementing the
	// paper's "choose an r_min slightly smaller than r" (0 = 0.9).
	RMinShrink float64
	// Beta overrides the derived candidate fraction β (0 = derive from
	// the confidence interval; see DeriveParams for the calibration).
	Beta float64
	// AutoCompactFraction is the share at which the index compacts
	// itself: Delete triggers a Compact when the tombstones reach that
	// share of the vector store's rows, Insert when the projected-space
	// tree's tail reaches that share of the tree's rows (TailFraction).
	// The dead share counts every row tombstoned since the last Compact —
	// no insert refills one — so under insert/delete churn it rises
	// alongside the tail share instead of staying near zero.
	// 0 means DefaultAutoCompactFraction; negative disables
	// auto-compaction; AutoCompactAlways compacts on any tombstone and
	// leaves the tail at DefaultAutoCompactFraction (a rebuild per insert
	// is never wanted); values above 1 are rejected (neither share can
	// exceed 1).
	AutoCompactFraction float64
	// Quantize attaches a scalar-quantized sidecar codec to the vector
	// store (store.QuantF32 or store.QuantI8) and screens verification
	// candidates with a provable lower bound on the exact squared
	// distance before touching the full-precision row. Screening is
	// reject-only: answers are element-wise identical to an unscreened
	// index; only the amount of full-precision memory traffic changes.
	// The zero value (store.QuantNone) disables screening.
	Quantize store.QuantKind
	// Shards is the shard count of the serving engine built by
	// BuildEngine (0 and 1 both mean a single shard; Build and
	// BuildFromStore ignore the field — a bare Index is always one
	// shard). See Engine for the sharded concurrency model.
	Shards int
	// Metric selects the distance metric (the zero value is L2, the
	// paper's native metric). Cosine and InnerProduct run as reductions
	// onto the L2 machinery (see package metric); Jaccard is served by
	// the MinHash band-LSH backend and requires BuildSets — Build
	// rejects it.
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

func (cfg *Config) fillDefaults() {
	if cfg.M == 0 {
		cfg.M = DefaultM
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
		cfg.DistSampleSize = 50000
	}
	if cfg.RMinShrink == 0 {
		cfg.RMinShrink = DefaultRMinShrink
	}
	if cfg.AutoCompactFraction == 0 {
		cfg.AutoCompactFraction = DefaultAutoCompactFraction
	}
}

// Result is one returned neighbor.
type Result struct {
	ID   int32
	Dist float64
}

// QueryStats reports the work one query performed.
type QueryStats struct {
	// Rounds is the number of range queries issued (the paper observes
	// "only one or two range queries are required").
	Rounds int
	// Verified is the number of original-space distance computations.
	// When quantized screening is on (Config.Quantize), candidates
	// rejected by the screen still count here — Verified measures
	// candidate-set size, which screening does not change.
	Verified int
	// Screened is the number of verification candidates whose exact
	// distance computation was skipped because the quantized lower
	// bound already exceeded the k-th best distance. Candidates are
	// verified four at a time and the screen judges each against the
	// k-th best as it stood when its block began, so the count can be
	// a few short of what a candidate-at-a-time screen would reject —
	// the answer is the same either way. Always 0 without
	// Config.Quantize. Screened ≤ Verified.
	Screened int
	// ProjectedDistComps is the number of projected-space metric
	// evaluations inside the PM-tree: every row of the tree's projected
	// store, rows Delete has marked dead included, once the enumeration
	// scans (a Search at the default budget does from its first round),
	// plus, for a query whose first radius is under the tree's scan
	// switch, what that round's one traversal paid — pivots, routing
	// objects, unpruned leaf entries, the tail. A projected point is
	// "within r" when sqrt(d²) ≤ r on the scan kernel's squared distance;
	// the traversal is an accelerator tested against that. The enumerator
	// counts its own evaluations, so the count is exact however many
	// queries overlap.
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
	Alpha2 float64 // CDF_{χ²(m)}(t²/c²)
	Beta   float64 // 2·α2, the candidate-fraction bound
}

// Index is a PM-LSH index over a mutable dataset.
//
// Every public method is safe for concurrent use, and a query never
// waits. The index publishes one immutable view of itself through an
// atomic pointer; a query — Search, SearchBatch once for the whole
// batch, SearchBall, SearchPairs, WriteTo, every getter — loads it and
// reads nothing else that changes, so it sees one state from start to
// end and never a half-applied mutation. Insert, Delete, Compact and
// SetQuantize take turns on a writer mutex and publish the next view
// with one atomic store. Engine's "Concurrency model" says why that is
// safe: between two compactions inserts only append, a delete is a
// delete epoch, and nothing a view holds is rewritten.
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
	// build-time norm bound S (0 for every other metric); mh is the
	// MinHash backend and is non-nil exactly when metric is Jaccard —
	// then every other indexing field is nil/zero and the public methods
	// delegate (see jaccard.go).
	metric   metric.Kind
	mipScale float64
	mh       *minhash.Index

	t     float64 // sqrt of upper χ²_{α1}(m) quantile
	chi   stats.ChiSquared
	kappa float64 // CDF-argument calibration (see DeriveParams)

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
	flat     []float64    // the data rows: row r is flat[r*dim:(r+1)*dim]
	codec    *store.Codec // their quantized sidecar; nil unless Config.Quantize
	deadRows []int32      // the rows tombstoned since the last Compact
	// rowOf maps an id to its row in flat; the next Insert gets id
	// len(rowOf). A deleted id keeps its row until Compact leaves it out
	// (-1 from then on): whether an id is live is the tree's to say.
	rowOf []int32
	// tree is a pmtree.Tree.Snapshot: its epoch is the view's, its Len
	// the view's live count.
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
// points inserted since the last bulk load, which a traversal
// brute-forces (a Search scans the rows anyway). 0 after Build and
// Compact; a loaded index has the share it was saved with.
func (v *view) tailFraction() float64 {
	if rows := v.tree.Rows(); rows > 0 {
		return float64(v.tree.Tail()) / float64(rows)
	}
	return 0
}

// deadFraction is the share of the store's rows that are tombstoned:
// what Delete's auto-compaction watches, as tailFraction is Insert's.
func (v *view) deadFraction(dim int) float64 {
	if len(v.flat) > 0 {
		return float64(len(v.deadRows)) / float64(len(v.flat)/dim)
	}
	return 0
}

// publish makes the writer's store and tree as they stand, with the
// given id map, distance sample and compaction count, the state queries
// load from now on. The caller holds wmu or is still building the index.
func (ix *Index) publish(rowOf []int32, distCDF []float64, compactions int64) {
	ix.view.Store(&view{
		flat:        ix.data.Flat(),
		codec:       ix.data.Codec(),
		deadRows:    ix.data.DeadRows(),
		rowOf:       rowOf,
		tree:        ix.tree.Snapshot(),
		distCDF:     distCDF,
		compactions: compactions,
	})
}

// queryScratch holds one query's reusable state: the projected query
// buffer, the range enumerator (the projected rows' squared distances
// and the round's delta), the current round's selected ids and the
// verifier's block. Everything is reused across queries; no
// per-point marks are needed because the enumerator hands out each
// point at most once per query.
type queryScratch struct {
	qp     []float64
	pmEnum pmtree.RangeEnumerator
	ids    []int32
	blk    verifyBlock // the verifier's gathered block
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

// Published operating point (paper Section 6.1): "we set … α1 = 1/e,
// so α2 = 0.1405 and β = 0.2809 are obtained according to Eq. 10".
const (
	paperAlpha2 = 0.1405
	paperC      = 1.5
)

// Build constructs the index over data. The rows are copied once into
// a contiguous store; the input slices are not retained and may be
// mutated afterwards. Under the Cosine and InnerProduct metrics the
// rows are first reduced to the internal L2 space (see package
// metric); Jaccard data is set-shaped and must go through BuildSets.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: Build requires a non-empty dataset")
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("core: unknown metric %d", uint8(cfg.Metric))
	}
	if cfg.Metric == metric.Jaccard {
		return nil, fmt.Errorf("core: the jaccard metric indexes sets, not vectors; use BuildSets")
	}
	rows, scale, err := reduceRows(data, cfg.Metric)
	if err != nil {
		return nil, err
	}
	s, err := store.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return buildInternal(s, cfg, len(data[0]), scale)
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

// BuildFromStore constructs the index directly over the rows of s,
// which is adopted as the index's dataset without copying. The caller
// must not append to or mutate s afterwards. Only the L2 metric is
// supported — the reductions must transform rows at ingest, which a
// pre-built store forbids; use Build (or BuildSets for Jaccard).
func BuildFromStore(s *store.Store, cfg Config) (*Index, error) {
	if cfg.Metric != metric.L2 {
		return nil, fmt.Errorf("core: BuildFromStore supports only the l2 metric (got %v); use Build", cfg.Metric)
	}
	return buildInternal(s, cfg, s.Dim(), 0)
}

// buildInternal builds over a store already holding internal-space
// rows. ndim is the native dimensionality (== s.Dim() except for the
// InnerProduct augmentation); scale is the MIP norm bound S.
func buildInternal(s *store.Store, cfg Config, ndim int, scale float64) (*Index, error) {
	if s.Len() == 0 {
		return nil, fmt.Errorf("core: Build requires a non-empty dataset")
	}
	if s.Live() != s.Len() {
		return nil, fmt.Errorf("core: BuildFromStore requires a tombstone-free store (%d of %d rows dead)",
			s.Len()-s.Live(), s.Len())
	}
	for row, n := 0, s.Len(); row < n; row++ {
		if !finiteNorm(s.Row(row)) {
			return nil, fmt.Errorf("core: row %d has a NaN or infinite component, or a norm beyond float64", row)
		}
	}
	cfg.fillDefaults()
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
	switch cfg.Quantize {
	case store.QuantNone, store.QuantF32, store.QuantI8:
	default:
		return nil, fmt.Errorf("core: unknown Quantize kind %d", cfg.Quantize)
	}
	if s.Quantize() != cfg.Quantize {
		s.SetQuantize(cfg.Quantize)
	}
	dim := s.Dim()

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
	// Calibrate the α2 derivation to the paper's published operating
	// point. A literal reading of Eq. 10 gives, for m = 15, α1 = 1/e,
	// c = 1.5: α2 = CDF_χ²(15)(t²/c²) = CDF(7.21) ≈ 0.048 — but the
	// paper states α2 = 0.1405 (β = 0.2809) for exactly those inputs,
	// and its reported recall matches the larger candidate budget. We
	// therefore scale the CDF argument by κ, fixed so that
	// α2(c = 1.5) equals the published 0.1405; the shape of β(c) across
	// the c-sweep (Figs. 10–11) is preserved.
	kappa := 1.0
	if xStar, err := chi.Quantile(paperAlpha2); err == nil {
		kappa = xStar * paperC * paperC / (t * t)
	}

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
		kappa:    kappa,
	}
	ix.publish(rowOf, distCDF, 0)
	return ix, nil
}

// buildTree is the part of a build that grows with the data, over a
// store just filled or repacked (every row live; ids as in
// pmtree.BuildFromStore): the rows are projected and the PM-tree bulk
// loaded over the projections, both on GOMAXPROCS goroutines, while
// the F(x) sample, which needs only the store, is drawn beside them on
// a goroutine of its own.
func buildTree(proj *lsh.Projection, s *store.Store, ids []int32, cfg Config) (*pmtree.Tree, []float64, error) {
	if s.Len() == 0 {
		// Nothing left after a compaction: an empty, pivot-less tree, there
		// being no data to pick pivots from; the next Compact re-selects them.
		tree, err := pmtree.New(cfg.M, pmtree.Config{Capacity: cfg.Capacity})
		return tree, sampleDistanceDistribution(s, cfg), err
	}
	sampled := make(chan []float64)
	go func() { sampled <- sampleDistanceDistribution(s, cfg) }()
	// The PM-tree copies the projected rows into a leaf-major buffer of
	// its own and keeps no reference to this store, which is garbage
	// once the build returns.
	projected, err := proj.ProjectStore(s)
	var tree *pmtree.Tree
	if err == nil {
		tree, err = pmtree.BuildFromStore(projected, ids, pmtree.Config{
			Capacity:  cfg.Capacity,
			NumPivots: cfg.NumPivots,
			PivotSeed: cfg.Seed + 1,
		})
	}
	// The one return: the sampling goroutine is joined on an error too.
	return tree, <-sampled, err
}

// finiteNorm reports whether p's Euclidean norm is a finite number: no
// component is NaN or ±Inf and their squares do not overflow. A vector
// without one is at distance NaN or +Inf from everything. (The squared
// norm through the dot kernel: every query pays this.)
func finiteNorm(p []float64) bool {
	n2 := vec.Dot(p, p)
	return !math.IsInf(n2, 0) && !math.IsNaN(n2)
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

// Insert adds one point to the index and returns its assigned id — the
// next value of a monotone counter, never a reused one. The point's row
// is appended to the store and its projection to the tree's tail (see
// pmtree): nothing a running query reads is touched, every query that
// starts after Insert returns covers the point, and when the tail
// reaches Config.AutoCompactFraction of the tree's rows the index
// compacts itself before returning — the one insert in very many that
// pays a bulk load.
func (ix *Index) Insert(p []float64) (int32, error) {
	if ix.metric == metric.Jaccard {
		return ix.insertJaccard(p)
	}
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

// SetQuantize installs (kind f32 or i8), refits, or drops (kind none)
// the quantized screening codec over the current dataset, for future
// Compacts and saves too. Refitting recovers
// screen selectivity after out-of-range inserts have widened the
// per-dimension slack. The codec is built aside and published like any
// mutation; queries before and after answer identically — only
// screening work changes.
func (ix *Index) SetQuantize(kind store.QuantKind) error {
	if ix.metric == metric.Jaccard {
		return fmt.Errorf("core: the jaccard backend stores sets, not vectors; quantized screening does not apply")
	}
	switch kind {
	case store.QuantNone, store.QuantF32, store.QuantI8:
	default:
		return fmt.Errorf("core: unknown Quantize kind %d", kind)
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.data.SetQuantize(kind)
	cur := ix.view.Load()
	ix.publish(cur.rowOf, cur.distCDF, cur.compactions)
	return nil
}

// Quantize reports the screening codec the index currently maintains.
func (ix *Index) Quantize() store.QuantKind {
	if ix.metric == metric.Jaccard {
		return store.QuantNone
	}
	return ix.view.Load().codec.Kind()
}

// Delete removes the point with the given id. The id stays retired
// forever — later Inserts get fresh ids — and the point's storage row
// is tombstoned until the next Compact drops it. A query that loaded
// its view before Delete returns finishes on the state it began with
// and may still return the point; none that starts afterwards does.
// When the tombstoned share of the store reaches
// Config.AutoCompactFraction the index compacts itself before returning.
func (ix *Index) Delete(id int32) error {
	if ix.metric == metric.Jaccard {
		return ix.mh.Delete(id)
	}
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
	if err := ix.data.Delete(int(cur.rowOf[id])); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ix.publish(cur.rowOf, cur.distCDF, cur.compactions)
	if f := ix.cfg.AutoCompactFraction; f > 0 && ix.data.DeadFraction() >= f {
		return ix.compactLocked()
	}
	return nil
}

// Compact rebuilds the index over its live points: the contiguous
// store is repacked (tombstones dropped, rows in id order),
// the projected-space tree is bulk loaded from scratch — the only way
// its structure ever changes: the tail of points inserted since the
// last load moves under leaves (TailFraction back to 0), dead rows are
// left out, and covering radii and rings are exact for the points now
// live — and the distance distribution is resampled. Ids are preserved.
// Everything is built in fresh arrays and published at the end: queries
// keep answering from the view they hold, other mutations wait.
func (ix *Index) Compact() error {
	if ix.metric == metric.Jaccard {
		start := time.Now()
		err := ix.mh.Compact()
		if err == nil {
			ix.compacted(start)
		}
		return err
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.compactLocked()
}

// compacted reports a compaction begun at start to the observer, if any.
func (ix *Index) compacted(start time.Time) {
	if fn := ix.onCompact.Load(); fn != nil {
		(*fn)(time.Since(start))
	}
}

// compactLocked is Compact with wmu held, over the published state
// (which the writer's store and tree stand at). It publishes the
// compacted one; on error nothing has changed.
func (ix *Index) compactLocked() error {
	start := time.Now()
	cur := ix.view.Load()
	flat, ids, rowOf := ix.repack(cur)
	fresh, err := store.FromFlat(flat, ix.dim)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Re-quantizing after the repack refits the codec's affine
	// parameters to the surviving rows, recovering screen selectivity
	// that out-of-range inserts (clamped codes, widened slack) erode.
	fresh.SetQuantize(ix.data.Quantize())

	tr, distCDF, err := buildTree(ix.proj, fresh, ids, ix.cfg)
	if err != nil {
		return err
	}
	ix.tree, ix.data = tr, fresh
	ix.publish(rowOf, distCDF, cur.compactions+1)
	ix.compacted(start)
	return nil
}

// repack copies the live rows, in id order — storage order too, rows
// being appended an id with each (a stream written while Insert refilled
// dead rows loads in another order, and leaves it here) — into one
// buffer sized for them (grown by Append it would be re-copied several
// times over, with wmu held), with their ids and each id's new row.
func (ix *Index) repack(cur *view) (flat []float64, ids, rowOf []int32) {
	flat = make([]float64, 0, ix.data.Live()*ix.dim)
	ids = make([]int32, 0, ix.data.Live())
	rowOf = make([]int32, len(cur.rowOf))
	for id, row := range cur.rowOf {
		rowOf[id] = -1
		if ix.tree.IsLive(int32(id)) {
			rowOf[id] = int32(len(ids))
			flat = append(flat, ix.data.Row(int(row))...)
			ids = append(ids, int32(id))
		}
	}
	return flat, ids, rowOf
}

// sampleDistanceDistribution draws random pairs of s's rows — a store
// just built or repacked, every row live — and returns their sorted
// original-space distances as an empirical F(x) (paper Eq. 4), used to
// pick r_min such that n·F(r_min) ≈ βn + k. The high HV of real
// datasets (Table 3) is what justifies using a global F for every query
// point.
func sampleDistanceDistribution(s *store.Store, cfg Config) []float64 {
	n := s.Len()
	samples := min(cfg.DistSampleSize, n*(n-1)/2)
	if samples == 0 {
		return []float64{1}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	out := make([]float64, 0, samples)
	for len(out) < samples {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		out = append(out, vec.L2(s.Row(i), s.Row(j)))
	}
	sort.Float64s(out)
	return out
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
// per Eq. 10: t² = χ²_{α1}(m) and t² = c²·χ²_{1−α2}(m), giving
// α2 = CDF_{χ²(m)}(κ·t²/c²) and β = 2α2 (Lemma 5). κ calibrates the
// derivation to the paper's published operating point (α2 = 0.1405 at
// c = 1.5, Section 6.1); see the comment in BuildFromStore.
// Config.Beta, when set, overrides β entirely.
func (ix *Index) DeriveParams(c float64) (Params, error) {
	if ix.metric == metric.Jaccard {
		return Params{}, fmt.Errorf("core: the jaccard backend has no χ² confidence parameters")
	}
	if !(c > 1) { // NaN included
		return Params{}, fmt.Errorf("core: approximation ratio c must exceed 1, got %v", c)
	}
	alpha2 := ix.chi.CDF(ix.kappa * ix.t * ix.t / (c * c))
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
	if ix.metric == metric.Jaccard {
		return ix.mh.Len()
	}
	return len(ix.view.Load().rowOf)
}

// LiveLen returns the number of live (not deleted) points.
func (ix *Index) LiveLen() int {
	if ix.metric == metric.Jaccard {
		return ix.mh.LiveLen()
	}
	return ix.view.Load().live()
}

// IsLive reports whether id refers to a live (inserted and not yet
// deleted) point.
func (ix *Index) IsLive(id int32) bool {
	if ix.metric == metric.Jaccard {
		return ix.mh.IsLive(id)
	}
	return ix.view.Load().tree.IsLive(id)
}

// Dim returns the native dimensionality callers index and query with
// (the internal reduced space may differ; see Index.dim). The Jaccard
// backend stores variable-length sets and reports 0.
func (ix *Index) Dim() int { return ix.ndim }

// Metric returns the native metric this index serves.
func (ix *Index) Metric() metric.Kind { return ix.metric }

// MIPScale returns the InnerProduct reduction's build-time norm bound
// S (0 for every other metric).
func (ix *Index) MIPScale() float64 { return ix.mipScale }

// M returns the projected dimensionality (number of hash functions).
func (ix *Index) M() int { return ix.cfg.M }

// T returns the confidence-interval multiplier t.
func (ix *Index) T() float64 { return ix.t }

// Tree exposes the PM-tree of the current view (for the cost model and
// tests): a read-only snapshot of that moment's points, whatever is
// inserted, deleted or compacted afterwards. Nil under Jaccard.
func (ix *Index) Tree() *pmtree.Tree {
	if ix.metric == metric.Jaccard {
		return nil
	}
	return ix.view.Load().tree
}

// Project maps a point into the projected space.
func (ix *Index) Project(q []float64) []float64 { return ix.proj.Project(q) }

// startEnum projects a reduced query into the scratch's reusable buffer
// and binds the scratch's range enumerator to it over the view's tree.
// No radius means anything when the projection overflows.
func (ix *Index) startEnum(sc *queryScratch, tree *pmtree.Tree, q []float64) (*pmtree.RangeEnumerator, error) {
	if cap(sc.qp) < ix.cfg.M {
		sc.qp = make([]float64, ix.cfg.M)
	} else {
		sc.qp = sc.qp[:ix.cfg.M]
	}
	ix.proj.ProjectTo(sc.qp, q)
	if !finite(sc.qp) {
		return nil, fmt.Errorf("core: query overflows the projection")
	}
	return &sc.pmEnum, sc.pmEnum.Reset(tree, sc.qp)
}

// compareDistID orders results by (distance, id): the order of every
// answer, and the one rule for two candidates at exactly the same
// distance — the smaller id comes first, whichever was verified first.
func compareDistID(a, b Result) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
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

// insertCandidate keeps cand sorted by compareDistID and capped at k
// entries; an r that does not make the top k leaves it unchanged.
func insertCandidate(cand []Result, r Result, k int) []Result {
	i := sort.Search(len(cand), func(j int) bool { return compareDistID(cand[j], r) > 0 })
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
