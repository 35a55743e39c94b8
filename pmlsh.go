package pmlsh

import (
	"io"

	"repro/internal/core"
	"repro/internal/metric"
)

// Metric selects the distance the index answers queries in
// (Config.Metric). See the package documentation's "Metrics" section
// for which guarantees each metric carries.
type Metric = metric.Kind

// The supported metrics: Euclidean distance (the default — the
// paper's setting, with the full (c,k) guarantee), cosine distance
// 1−cos(q,x) over vector direction, inner-product similarity (results
// ordered by descending ⟨q,x⟩, reported as Dist = −⟨q,x⟩), and
// Jaccard distance 1−|A∩B|/|A∪B| over integer token sets (BuildSets).
const (
	MetricL2           = metric.L2
	MetricCosine       = metric.Cosine
	MetricInnerProduct = metric.InnerProduct
	MetricJaccard      = metric.Jaccard
)

// ParseMetric maps the spellings "l2" (or "", "euclidean"), "cosine"
// ("angular"), "ip" ("dot", "mip", "innerproduct", "inner-product")
// and "jaccard" ("minhash") to their Metric, for wiring command-line
// flags.
func ParseMetric(s string) (Metric, error) { return metric.Parse(s) }

// AutoCompactAlways is a sentinel for Config.AutoCompactFraction that
// makes every Delete leaving at least one dead row trigger a Compact
// (Insert keeps compacting at the 0.3 default). A literal 0 cannot
// express this: the zero value selects the 0.3 default. It survives
// serialization round trips.
const AutoCompactAlways = core.AutoCompactAlways

// Neighbor is one query result: a point id (the row index passed to
// Build, unless custom ids were provided) and its exact distance to
// the query in the index's native metric — Euclidean under MetricL2,
// 1−cosθ under MetricCosine, −⟨q,x⟩ under MetricInnerProduct, and
// 1−Jaccard(A,B) under MetricJaccard.
type Neighbor = core.Result

// Pair is one closest-pair result: the ids of two distinct indexed
// points (I < J) and their exact distance in the index's native
// metric.
type Pair = core.Pair

// QueryStats describes the work one query performed: the number of
// projected range-query rounds, the number of original-space distance
// verifications, the projected-space metric evaluations inside the
// tree, and the final search radius.
type QueryStats = core.QueryStats

// CPStats describes the work one closest-pair query performed: the
// number of candidate pairs consumed from the projected-space
// self-join, the number of exact distance verifications, and the
// projected-space metric evaluations inside the tree.
type CPStats = core.CPStats

// Params are the derived confidence-interval constants for a given
// approximation ratio c (Eq. 10 of the paper): the projected-radius
// multiplier T = sqrt(χ²_{α1}(m)), and the false-positive constants α2
// and β = 2α2 that size the candidate set.
type Params = core.Params

// Config controls index construction. The zero value takes the paper's
// evaluation defaults, except that data of 64 or more dimensions under
// L2 or cosine is projected to m = 24 instead of 15 (see M).
type Config struct {
	// M is the number of hash functions, i.e. the projected
	// dimensionality (0 = 24 for data of 64 or more dimensions under L2
	// or cosine, otherwise the paper's 15). The candidate fraction β
	// falls as M grows: 0.281 at 15, 0.147 at 24 (c = 1.5).
	M int
	// NumPivots is the PM-tree pivot count s (0 = 5). Set ZeroPivots to
	// request a plain M-tree instead.
	NumPivots int
	// ZeroPivots forces s = 0 (a plain M-tree) when NumPivots is 0.
	ZeroPivots bool
	// Capacity is the PM-tree node capacity (0 = 16).
	Capacity int
	// Alpha1 is the confidence-interval parameter α₁ (0 = 1/e). Smaller
	// values widen the projected search radius: higher recall, more
	// work.
	Alpha1 float64
	// Seed makes builds deterministic.
	Seed int64
	// AutoCompactFraction is the share at which the index compacts
	// itself: a Delete triggers a Compact when the deleted share of the
	// vector store reaches it, an Insert when the points inserted since
	// the last compaction reach that share of the projected-space tree's
	// rows (Info().TailFraction). The deleted share counts every row
	// deleted since the last compaction — no Insert refills one — so
	// under insert/delete churn it rises alongside the inserted share
	// instead of staying near zero. 0 = 0.3; negative disables
	// auto-compaction; values above 1 are rejected; the AutoCompactAlways
	// sentinel compacts on every delete. With Shards > 1 the fraction
	// applies per shard.
	AutoCompactFraction float64
	// Shards splits the index into N independent shards with ids
	// striped across them (0 and 1 both mean a single shard, which is
	// element-wise identical to earlier single-shard builds). Queries
	// never wait on a mutation at any N, and the index holds one copy of
	// the data at any N; N > 1 lets mutations of different shards run
	// concurrently and makes each compaction an N-th the size. See the
	// package documentation for guidance on picking N.
	Shards int
	// Metric selects the distance function (the zero value is MetricL2,
	// which reproduces the paper exactly). MetricCosine and
	// MetricInnerProduct reduce to internal L2 searches over transformed
	// vectors at Build/Insert time; MetricJaccard switches to a MinHash
	// band-LSH backend and requires BuildSets instead of Build. Results
	// are always reported in the native metric.
	Metric Metric
	// MinHashBands and MinHashRows shape the MetricJaccard signature:
	// k = bands×rows hash functions, banded so two sets collide in some
	// bucket with probability 1−(1−s^rows)^bands at Jaccard similarity
	// s. Zero values select 16 bands × 8 rows. Ignored by the vector
	// metrics.
	MinHashBands int
	MinHashRows  int
	// MinHashThreshold drops candidates whose exact Jaccard similarity
	// falls below it after rescoring (0 keeps everything). Ignored by
	// the vector metrics.
	MinHashThreshold float64
}

// Index is a PM-LSH index over a mutable dataset. Queries go through
// the unified request API — Search, SearchBatch, SearchPairs,
// SearchBall — which takes a context plus per-query functional options
// (ratio, confidence width, result filter, budget, statistics sink).
//
// Every method is safe for concurrent use, and reads are snapshot
// isolated: a query loads the immutable view each shard has published,
// so queries never wait on Insert, Delete or Compact and never wait on
// each other. A query observes one consistent state from start to end
// and never returns a point deleted before it began. Mutations
// serialize per shard; with Config.Shards > 1, mutations to different
// shards run concurrently.
//
// Ids are stable: Insert assigns them from a monotone counter and they
// are never reused or remapped — not by Delete, not by Compact — so an
// id a caller holds refers to the same point for the index's lifetime.
// With Shards > 1, concurrent Inserts receive unique ids that may
// interleave out of call order; sequential inserts stay consecutive.
type Index struct {
	ix *core.Engine
}

// Build constructs an index over data. Every point must have the same
// dimensionality. The rows are copied once into the index's contiguous
// vector store, so the caller keeps ownership of data and may reuse or
// mutate it after Build returns.
func Build(data [][]float64, cfg Config) (*Index, error) {
	ix, err := core.BuildEngine(data, coreConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// BuildSets constructs a MetricJaccard index over integer token sets
// (cfg.Metric must be MetricJaccard). Each set is canonicalized
// (sorted, deduplicated) and copied, so the caller keeps ownership.
// Queries against a set index pass the query set's tokens as
// non-negative integer-valued float64s (every token must be ≤ 2⁵³ so
// the float64 round trip is exact); results report Jaccard distance
// 1−|A∩B|/|A∪B|.
func BuildSets(sets [][]uint64, cfg Config) (*Index, error) {
	ix, err := core.BuildSetsEngine(sets, coreConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// coreConfig maps the public config onto the engine's.
func coreConfig(cfg Config) core.Config {
	return core.Config{
		M:                   cfg.M,
		NumPivots:           cfg.NumPivots,
		ExplicitZeroPivots:  cfg.ZeroPivots,
		Capacity:            cfg.Capacity,
		Alpha1:              cfg.Alpha1,
		Seed:                cfg.Seed,
		AutoCompactFraction: cfg.AutoCompactFraction,
		Shards:              cfg.Shards,
		Metric:              cfg.Metric,
		MinHashBands:        cfg.MinHashBands,
		MinHashRows:         cfg.MinHashRows,
		MinHashThreshold:    cfg.MinHashThreshold,
	}
}

// Insert adds one point to the index and returns its assigned id: the
// next value of a monotone counter, never a reused one. A point with a
// NaN or infinite component, or one so large that its projection
// overflows, is rejected and changes nothing. When the points inserted
// since the last compaction reach Config.AutoCompactFraction of the
// projected-space tree's rows, Insert compacts the index (the shard,
// with Shards > 1) before returning. Insert may run concurrently with
// queries and other mutations.
func (x *Index) Insert(p []float64) (int32, error) { return x.ix.Insert(p) }

// Delete removes the point with the given id. The id is retired
// forever; the point's storage row stays, dead, until the next
// compaction drops it. When the dead share of the rows reaches
// Config.AutoCompactFraction, Delete compacts the index before
// returning. Deleting an unknown or already-deleted id is an error.
// Delete may run concurrently with queries and other mutations.
func (x *Index) Delete(id int32) error { return x.ix.Delete(id) }

// Compact rebuilds the index over its live points: the vector store is
// repacked (dropping dead rows), the projected-space tree is bulk
// loaded from scratch — restoring the tight covering regions that
// deletions loosen — and the query-radius distance sample is
// redrawn. Ids are preserved. Compact rebuilds shard by shard and
// publishes each rebuilt shard with one atomic store, so queries keep
// answering throughout; only mutations to the shard being rebuilt wait.
func (x *Index) Compact() error { return x.ix.Compact() }

// Len returns the size of the id space: the number of ids ever
// assigned. With no deletions this is the number of indexed points;
// under churn, use LiveLen for the live count.
func (x *Index) Len() int { return x.ix.Len() }

// LiveLen returns the number of live (not deleted) points.
func (x *Index) LiveLen() int { return x.ix.LiveLen() }

// IsLive reports whether id refers to a live (inserted and not yet
// deleted) point.
func (x *Index) IsLive(id int32) bool { return x.ix.IsLive(id) }

// Dim returns the dimensionality of indexed points (0 for a
// MetricJaccard index, whose points are sets, not vectors).
func (x *Index) Dim() int { return x.ix.Dim() }

// Metric returns the distance metric the index was built with.
func (x *Index) Metric() Metric { return x.ix.Metric() }

// M returns the projected dimensionality (hash-function count).
func (x *Index) M() int { return x.ix.M() }

// Shards returns the shard count (1 unless Config.Shards asked for
// more).
func (x *Index) Shards() int { return x.ix.Shards() }

// Info is one consistent snapshot of the index's observable state —
// what a dashboard or the /v1/info serving endpoint reports.
type Info struct {
	// Dim is the original dimensionality; M the projected one.
	Dim, M int
	// Shards is the shard count.
	Shards int
	// IDs is the size of the id space: ids ever assigned.
	IDs int
	// Live is the number of live (not deleted) points.
	Live int
	// Dead is the number of storage rows whose point was deleted,
	// awaiting Compact.
	Dead int
	// Compactions counts Compact operations (explicit and automatic)
	// completed since the index was built or loaded.
	Compactions int64
	// Metric is the distance metric the index was built with.
	Metric Metric
	// TailFraction is, per shard, the share of the projected-space
	// tree's rows inserted since the last Build or compaction, which a
	// tree traversal brute-forces. It is 0 after Build and Compact, rises
	// with every Insert, and when it reaches Config.AutoCompactFraction
	// the shard compacts itself: read beside Dead, it is how far each
	// shard is from its next automatic compaction. It prices only
	// small-radius queries (SearchBall, SearchPairs): a Search scans the
	// rows and visits no leaf.
	TailFraction []float64
}

// Info returns one consistent snapshot of the index's observable
// state. Each shard's figures are read from one published view, so they
// are mutually consistent (Live ≤ IDs, Dead ≤ IDs−Live)
// even while mutations run — unlike an ad-hoc sequence of Len /
// LiveLen calls, between which a mutator can land.
func (x *Index) Info() Info {
	ei := x.ix.Info()
	return Info{
		Dim:         ei.Dim,
		M:           ei.M,
		Shards:      ei.Shards,
		IDs:         ei.IDs,
		Live:        ei.Live,
		Dead:        ei.Dead,
		Compactions: ei.Compactions,
		Metric:      ei.Metric,

		TailFraction: ei.TailFraction,
	}
}

// DeriveParams exposes the confidence-interval constants used for a
// given approximation ratio.
func (x *Index) DeriveParams(c float64) (Params, error) {
	return x.ix.DeriveParams(c)
}

// WriteTo serializes the index (projection, dataset with dead rows, id
// map, distance sample and the count of rows its PM-tree was begun over;
// with Shards > 1 the shard layout too) to w in a little-endian binary
// format. The tree itself is not written: a loaded index rebuilds it
// from the rows on first structural use, answers queries identically to
// the saved one, with the same statistics, and holds the same live set,
// retired ids, dead rows and tail. Like queries, WriteTo reads published
// views — it neither waits on concurrent mutations nor makes them wait,
// and loads no tree.
func (x *Index) WriteTo(w io.Writer) (int64, error) { return x.ix.WriteTo(w) }

// Load deserializes an index written with WriteTo, including streams
// written by earlier versions of this package (a pre-sharding one loads
// with a single shard; one that carried a serialized tree loads its rows
// as one fresh generation).
func Load(r io.Reader) (*Index, error) {
	ix, err := core.LoadEngine(r)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}
