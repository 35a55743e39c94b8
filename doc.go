// Package pmlsh is a from-scratch Go implementation of PM-LSH, the
// locality-sensitive-hashing framework for high-dimensional approximate
// nearest-neighbor search of Zheng, Zhao, Weng, Hung, Liu and Jensen
// (PVLDB 13(5), 2020).
//
// PM-LSH answers (c,k)-ANN queries in sublinear time with a quality
// guarantee: it projects points into a low-dimensional space with
// 2-stable hash functions, indexes the projections with a PM-tree, and
// probes candidates through a short sequence of projected range queries
// whose radii come from a tunable χ² confidence interval. The returned
// top-k is c²-approximate with constant probability (Theorem 1 of the
// paper); in practice recall is high and the overall distance ratio is
// close to 1.
//
// # Quick start
//
//	data := ...                       // [][]float64, one row per point
//	index, err := pmlsh.Build(data, pmlsh.Config{})
//	if err != nil { ... }
//	neighbors, err := index.Search(ctx, query, 10) // (c=1.5, k=10)-ANN
//
// The zero Config uses the paper's evaluation defaults: m = 15 hash
// functions, s = 5 PM-tree pivots, α₁ = 1/e.
//
// # Request API
//
// Every query goes through one options-driven entry point per query
// family — Search (point ANN), SearchBatch (many point queries over
// one state of the index), SearchPairs (closest pairs), SearchBall
// (ball cover). Each takes a context plus functional options carrying
// the per-query request parameters:
//
//	WithRatio(c)          approximation ratio (default 1.5)
//	WithAlpha1(a)         per-query confidence width α₁ — widens or
//	                      narrows the projected search radius T
//	WithFilter(admit)     restrict results to admitted ids
//	WithBudget(n)         cap on admitted exact-distance verifications
//	WithStats(&st)        per-query work statistics (Search, SearchBall)
//	WithBatchStats(sts)   per-query statistics for SearchBatch
//	WithPairStats(&st)    statistics for SearchPairs
//
// Cancellation: every entry point honors its context. Search checks
// between range-expansion rounds, SearchBatch additionally between
// work items, SearchPairs between rounds and verification batches — a
// canceled request stops doing tree work, returns ctx.Err(), and
// leaves the index fully usable.
//
// Filter cost model: WithFilter is pushed into the verification loop,
// not applied to finished results. A filtered-out candidate costs one
// predicate call — no exact distance computation — and the candidate
// budget βn+k counts only admitted points, so the engine keeps
// expanding its radius until k admitted results are found (or the
// corpus is exhausted) instead of returning short. At s% selectivity a
// filtered query therefore verifies roughly s% of the candidates the
// unfiltered query would, while recall against the filtered ground
// truth stays at the unfiltered level. The predicate must be fast,
// side-effect free and safe for concurrent use; it only sees live ids.
//
// The fixed-signature methods this API replaced (KNN, BallCover,
// ClosestPairs and their variants) are gone; CHANGES.md (PR 18) maps
// each to its Search* call.
//
// # Metrics
//
// The engine is natively Euclidean, and Config.Metric extends it to
// three more measures over the same index, serving and durability
// stack. Cosine and inner product are reductions to L2 performed at
// ingest; Jaccard swaps in a MinHash band-LSH backend behind the same
// query seam:
//
//	MetricL2 (default)  ‖q−x‖; the native engine, byte-identical to
//	                    earlier versions on disk and in answers
//	MetricCosine        1 − cos θ ∈ [0, 2]; rows and queries are
//	                    normalized once, then ‖q−x‖²/2 = 1 − cos θ,
//	                    so the reduction is an isometry and the
//	                    c-guarantee transfers (c² in 1 − cos θ)
//	MetricInnerProduct  −⟨q,x⟩ (more similar = smaller); augmented
//	                    dimension x → [x/S, √(1−‖x/S‖²)] with S the
//	                    max build norm, q → [q/‖q‖, 0]. A heuristic
//	                    reduction — the transform compresses top-rank
//	                    contrast, so the default radius schedule
//	                    widens (DefaultMIPAlpha1) and the equivalence
//	                    suite pins recall ≥ 0.8 vs brute force
//	MetricJaccard       1 − |A∩B|/|A∪B| over sets of uint64 tokens
//	                    (BuildSets; queries pass tokens as floats).
//	                    MinHash signatures of MinHashBands × MinHashRows
//	                    hashes; a pair with similarity s becomes a
//	                    candidate with probability 1 − (1 − s^r)^b, and
//	                    every candidate is rescored with its exact
//	                    Jaccard distance, so banding affects recall
//	                    only — reported distances are always exact.
//	                    MinHashThreshold post-filters by similarity.
//
// Reported distances are always native to the metric. The χ²
// confidence-interval machinery (DeriveParams, α₁/α₂/β derivation)
// is internal to the L2 reduction: it applies unchanged under cosine
// and inner product and does not exist for Jaccard, where
// DeriveParams and SetQuantize return errors. SearchBall takes a
// native radius for cosine and is rejected for inner product;
// SearchPairs is rejected for inner product (a closest "pair" has no
// meaning when similarity is query-relative). Serialized non-L2
// indexes carry a metric tag (PLS6 envelope); L2 keeps the exact
// earlier byte format (PLS4, PLS5 when sharded). See the README's
// Metrics section for the reduction table and b × r tuning guidance.
//
// # Storage layout
//
// Build copies the input rows once into a contiguous flat buffer (the
// internal vector store): every indexed point is a fixed-stride row of
// one []float64, and the PM-tree's leaves reference rows of a second
// store holding the projections, which the tree owns and orders
// leaf-major: a leaf's projected points are one consecutive run of
// rows, leaves follow each other in traversal order, and a leaf's ids,
// parent distances and pivot distances are parallel arrays. A tree
// traversal therefore filters a leaf in one pass and evaluates the
// surviving projected distances over contiguous memory with a batched
// kernel — and a query whose radius the tree cannot prune (see Query
// engine) runs that kernel once over the whole buffer instead. Build
// and Compact produce this layout and nothing disturbs it in between:
// the tree's structure is frozen once bulk loaded, Insert appends the
// projected point to a tail of rows behind the leaves' (covered by the
// flat pass as they are, brute-forced by a traversal), Delete marks a
// row dead where it lies, and Info().TailFraction reports, per shard,
// how much of the tree's store is tail. Candidate verification likewise
// streams sequential memory instead of chasing a pointer per point,
// compares squared distances with early abandonment against the
// running k-th best, and defers the k square roots to the end of the
// query. It takes candidates four at a time: one kernel call reduces
// four rows side by side, so their dependency chains and cache misses
// overlap, and the top-k ranks by (distance, id), so the answer is that
// of verifying them one by one in any order. The PM-tree itself is bulk
// loaded — metric-local leaves packed by recursive bisection, upper
// levels assembled bottom-up with exact radii and rings — which tightens
// the pruning bounds every query path depends on. A build (a compaction
// is one) uses every core — projection in GOMAXPROCS chunks, bisection
// halves on other goroutines, the F(x) distance sample beside both — and
// the index is byte-identical at any GOMAXPROCS.
//
// # Closest-pair search
//
// The journal extension of PM-LSH generalizes the framework from
// (c,k)-ANN to (c,k)-approximate closest-pair search: find k pairs of
// indexed points such that, with constant probability, the i-th
// returned distance is within factor c of the exact i-th closest pair
// distance. SearchPairs runs a dual-branch self-join traversal over
// the PM-tree in projected space, enumerating candidate pairs in
// increasing projected distance, verifying them with exact distances
// in the contiguous store, and terminating on the confidence-interval
// radius condition:
//
//	pairs, err := index.SearchPairs(ctx, 10, WithRatio(1.5)) // 10 closest pairs
//
// One driver serves every shard count: a sharded index merges its
// shards' self-joins and cross-shard joins into one candidate stream,
// and an unsharded one is the same loop over a single self-join.
// De-duplicating a corpus is the canonical use — the near-copies are
// exactly the closest pairs (see examples/dedup).
//
// # Mutation lifecycle
//
// The index is mutable in place — the serving loop of insert, delete,
// query and compact needs no rebuilds and no downtime:
//
//	id, err := index.Insert(point) // fresh id from a monotone counter
//	err = index.Delete(id)         // retires the id, tombstones the row
//	err = index.Compact()          // repacks storage, re-bulk-loads the tree
//	index.Len()                    // ids ever assigned
//	index.LiveLen()                // live points
//	index.IsLive(id)               // per-id liveness
//
// Ids are stable: they are never reused and never remapped, not by
// Delete and not by Compact, so an id a caller holds refers to the
// same point for the index's lifetime. Delete marks the point's row
// in the projected-space tree dead (the tree's regions keep covering
// it, so they stay valid) and tombstones its row in the vector store.
// Nothing refills that row: an Insert appends a new one, and its
// projection joins the tree's tail. Queries never return a deleted point. A point with a
// NaN or infinite component, or a norm beyond float64, is refused by
// Build, Insert and every query with an ordinary error.
//
// Dead rows and a growing tail are what small-radius queries pay for
// under churn (a Search scans the rows either way). Compact — called
// explicitly, or automatically once the tombstoned share of the store
// (on Delete) or the tail's share of the tree's rows (on Insert)
// reaches Config.AutoCompactFraction (default 0.3; negative disables;
// the AutoCompactAlways sentinel compacts on every tombstone) —
// rebuilds via the bulk loader over exactly the live set, restoring
// fresh-build query cost; the mutation that triggers it waits for the
// rebuild, which holds its shard's writer mutex throughout.
// Serialization (WriteTo/Load) persists the full lifecycle state:
// tombstones, retired ids, the dead rows, the tree's dead marks and its
// tail; streams from earlier versions still load.
//
// # Query engine
//
// Algorithm 2 of the paper probes candidates with projected range
// queries of geometrically growing radius (r ← c·r). A Search is four
// steps: project the query; one flat pass that computes every projected
// row's squared distance over the PM-tree's contiguous buffer and keeps
// the array, so that a later round is a threshold over it and each
// projected point is evaluated once per query, not once per round;
// select — Algorithm 2 verifies a candidate set of at most βn+k points,
// so the round's nearest points up to the budget are taken by buckets of
// projected distance and nothing is sorted; verify the selected rows
// against the original vectors four at a time. Per-query state is
// pooled, so a steady-state Search call allocates only its k-result
// output slice and option closures. Answers are element-wise identical
// to the round-restarting formulation (the equivalence suite pins this);
// only the work shrinks.
//
// The PM-tree itself is walked at most once per query, and by a k-NN
// query not at all. A tree prunes while the query ball meets few
// leaves; Algorithm 2's first radius is sized to hold βn+k points, and
// a ball that size meets nearly every leaf. Only a query whose first
// radius is under a switch radius the tree reads off its own geometry
// (a quarter of its median leaf covering radius — not a setting)
// traverses: SearchBall and SearchPairs at near-duplicate radii. The
// traversal keeps nothing of what it prunes; a query that needs a
// second round takes the flat pass from there. "Within r" is defined
// by the flat pass — sqrt(d²) ≤ r on the kernel's squared distance —
// and the traversal is an accelerator tested against it, so answers do
// not depend on the path; ProjectedDistComps does: a query that scanned
// from its first round reads the projected store's row count, one that
// traversed first and needed a second round that traversal plus the
// row count. See README.md ("Performance").
//
// # Distance kernels and quantized screening
//
// The hot distance kernels (exact, early-abandoning, early-abandoning
// over four gathered rows at once, one-against-many and dot product)
// dispatch to AVX2 assembly on amd64 CPUs that
// support it, selected once at startup; the portable Go fallbacks are
// bit-identical — same accumulation order, no FMA contraction — so
// results do not depend on the backend. Build with -tags noasm to
// force the fallbacks.
//
// Config.Quantize (QuantF32 or QuantI8) adds a scalar-quantized
// sidecar to the vector store and screens verification candidates
// with a provable lower bound computed from the compact codes: a
// candidate is skipped only when the bound already exceeds the
// current k-th best distance, so results, statistics and the (c,k)
// guarantee are element-wise identical to an unquantized index —
// screening only saves full-precision row accesses. The rejected
// count is reported per query as QueryStats.Screened. Screening pays
// when the dataset is much larger than the CPU cache (an i8 code row
// is 8x smaller than its f64 row); on cache-resident data it is
// neutral. SetQuantize installs or drops the codec on a live index,
// and Compact refits the i8 parameter range to the live points.
// Serialized indexes (WriteTo/Load) carry the codec parameters;
// codes are re-derived on load, bit-identically.
//
// # Queries, shards and snapshot isolation
//
// Every method is safe for concurrent use, and reads are snapshot
// isolated. Each shard holds one copy of its data and publishes an
// immutable view of it through an atomic pointer; a query — Search,
// SearchBatch once for the batch, SearchPairs, SearchBall — loads the
// views and answers from them, so it never waits on a mutation, never
// waits on another query, and never observes a mutation half-applied.
// A point whose Delete completed before the query began can never
// appear in its results; one deleted while it runs still may. Between
// two compactions a mutation rewrites nothing a view holds: Insert
// appends rows past the lengths earlier views carry, Delete stores a
// delete epoch that only later views honour, and Compact builds fresh
// arrays and publishes them with one atomic store. Mutations to the
// same shard serialize (one waits out a compaction of its shard),
// mutations to different shards run concurrently. The practical
// consequence is read tail latency: a query arriving during a Compact
// reads the outgoing view and p99 stays at ordinary query time (see
// BenchmarkMixedReadP99).
//
// Config.Shards picks the partition count. The default (0 or 1) keeps
// one shard and answers element-wise identically to earlier versions.
// N > 1 stripes ids across N independent partitions (global id g lives
// on shard g mod N), spreads mutation load, and fans each query out
// over all shards, merging per-shard answers; quality gates (recall,
// ratio) hold because every shard runs the full PM-LSH machinery over
// its slice with its own β·n/N budget. Memory does not depend on N: the
// index holds the rows once, plus their m-dimensional projections and
// the tree over them (about 1.2× the rows' bytes at d = 128). Use
// Shards > 1 when mutation throughput or per-shard compaction pauses
// matter; a read-only or read-mostly index gains nothing from N > 1
// (reads already never block), so leave the default.
//
// SearchBatch fans a query slice across a worker pool of up to
// GOMAXPROCS goroutines and returns per-query results in input order —
// the throughput-oriented entry point for serving many concurrent
// readers; on any non-nil error its result slice is nil, never a
// partially filled batch:
//
//	results, err := index.SearchBatch(ctx, queries, 10)
//
// Per-query statistics (WithStats, WithBatchStats, WithPairStats) are
// exact for the query they describe, ProjectedDistComps included: each
// query's range enumerator counts its own projected-space metric
// evaluations, so overlapping queries never pollute one another's
// counters. With Shards > 1 the counters are summed across the shards
// a query touched (FinalRadius reports the largest per-shard radius).
//
// # Serving
//
// The engine runs as a network service: `pmlsh serve` (cmd/pmlsh) puts
// a sharded index behind an HTTP/JSON API (internal/server) exposing
// the full request API — per-request ratio/α₁/budget and a timeout_ms
// that becomes a context deadline — plus insert/delete/compact,
// health and readiness probes, Prometheus-text metrics with structured
// request logging (internal/obs), graceful drain on SIGTERM (readiness
// fails, in-flight requests finish, a final checkpoint is written),
// and crash-safe temp-file+rename checkpoints. cmd/pmlshload generates
// sustained open-loop traffic against it and scores achieved recall
// with a brute-force oracle; the build-tagged soak suite
// (internal/server) asserts recall, tail latency, zero 5xx and clean
// drain under an hour-scale mutating workload. Everything is standard
// library — no dependencies. See the README's Serving section for the
// endpoint table and a curl session.
//
// # Durability
//
// With `pmlsh serve -data-dir`, the engine is backed by a write-ahead
// log (internal/wal): every mutation — insert, delete, compact,
// codec change — is appended to a CRC-framed segment file and fsynced
// under the -fsync policy (always, everyN=<n> group commit, or
// interval=<duration>) before it is applied in memory, so a mutation
// whose call returned is in the durable log. Reopening the directory
// recovers: load the newest checkpoint, replay the newer segments —
// repairing a torn tail left by a crash mid-write — and serve.
// Corruption anywhere before the tail is a hard error, never a silent
// skip. Background checkpoints (-checkpoint-interval) rotate the log
// and bound replay time; the listener binds before recovery so
// /healthz answers immediately while /readyz serves 503 until replay
// completes. The fault-injection suite (wal.Injector) kills the
// engine at hundreds of randomized write/fsync boundaries — including
// torn writes the kernel acknowledged but never persisted — and
// asserts no acknowledged mutation is lost, nothing half-applied
// resurfaces, and query quality holds after recovery. See the
// README's Durability section for the format and a runbook.
//
// # Repository layout
//
// The exported API wraps internal/core. The repository also contains
// the full substrate stack (vector store, PM-tree, R-tree, B+-tree,
// p-stable LSH, χ² statistics) and every baseline from the paper's
// evaluation (SRS, QALSH, Multi-Probe LSH, R-LSH, linear scan) under
// internal/, along with a benchmark harness that regenerates each
// table and figure; see README.md for the layer diagram.
package pmlsh
