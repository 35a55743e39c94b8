package core

import (
	"context"
	"math"

	"repro/internal/metric"
	"repro/internal/vec"
)

// Closest-pair search: the journal extension of PM-LSH generalizes the
// tree-over-projections design from (c,k)-ANN to (c,k)-approximate
// closest-pair search. The engine runs a dual-branch (self-join)
// traversal over the PM-tree in projected space (pmtree.PairEnumerator),
// consuming candidate pairs in increasing projected distance, verifying
// each with its exact distance in the contiguous store, and terminating
// on the confidence-interval radius condition.
//
// Mirroring Algorithm 2's radius selection, each round caps the
// self-join at projected radius t·r: a pair at original distance <= r
// projects within t·r with probability 1−α1 (Lemma 3's interval). The
// initial r comes from the empirical pair-distance distribution F — the
// radius at which F predicts about βn + k pairs — and is enlarged to
// c·r whenever a round ends before the result is settled. A round
// settles once the k-th best exact distance r_k satisfies r_k <= c·r:
// every unseen pair then lies, with constant probability, above r_k/c,
// making the result a (c,k)-approximation. The βn + k verification
// budget mirrors Algorithm 2's second termination. An uncapped
// enumeration would degenerate on self-joins: until k pairs are
// verified there is no distance to prune with, and the traversal would
// materialize a large fraction of all O(n²) pairs.

// Pair is one returned closest pair: two dataset ids (I < J) and their
// exact original-space distance.
type Pair struct {
	I, J int32
	Dist float64
}

// CPStats reports the work one closest-pair query performed.
type CPStats struct {
	// Rounds is the number of capped self-joins issued (like the KNN
	// engine, one or two rounds are typical).
	Rounds int
	// Enumerated is the number of candidate pairs consumed from the
	// projected-space self-join, including pairs re-enumerated by later
	// rounds.
	Enumerated int
	// Verified is the number of unique pairs admitted to verification.
	// When quantized screening is on (Config.Quantize), pairs rejected
	// by the screen still count here — Verified measures candidate-set
	// size, which screening does not change.
	Verified int
	// Screened is the number of admitted pairs whose exact distance
	// computation was skipped because the quantized lower bound already
	// exceeded the current k-th best pair distance. Always 0 without
	// Config.Quantize. Screened ≤ Verified.
	Screened int
	// ProjectedDistComps is the number of projected-space metric
	// evaluations inside the PM-tree traversal. Like the KNN statistic,
	// it is exact for the query it describes — the pair enumerator
	// counts its own evaluations — no matter how many queries run
	// concurrently.
	ProjectedDistComps int64
}

// SearchPairs answers one (c,k)-closest-pair request under the unified
// options surface: up to k admitted pairs of distinct indexed points
// such that, with constant probability, the i-th returned distance is
// within factor c of the exact i-th closest admitted pair distance.
// A filter admits a pair only when it admits both ids; filtered-out
// pairs cost no exact distance and do not count toward the
// verification budget. Cancellation is checked between rounds and
// between verification work items (every candidate batch), so a
// canceled request stops doing tree work and returns ctx.Err().
// o.PairStats, when non-nil, receives exact per-query statistics.
//
// The index is the one partition of the shard-count-agnostic driver in
// enginepairs.go; Engine.SearchPairs hands the same driver its shards.
func (ix *Index) SearchPairs(ctx context.Context, k int, o SearchOptions) ([]Pair, error) {
	return searchPairs(ctx, []*Index{ix}, k, o)
}

// insertPair keeps cand sorted ascending by distance and capped at k
// entries (equal distances keep first-inserted order).
func insertPair(cand []Pair, p Pair, k int) []Pair {
	return vec.InsertBounded(cand, p, k, func(p Pair) float64 { return p.Dist })
}

// finishPairs converts the deferred internal squared distances to the
// native metric (see finishDist; pairs have no query, so the
// InnerProduct case — rejected upstream — never reaches here).
func finishPairs(pairs []Pair, m metric.Kind) {
	for i := range pairs {
		if m == metric.Cosine {
			pairs[i].Dist = pairs[i].Dist / 2
		} else {
			pairs[i].Dist = math.Sqrt(pairs[i].Dist)
		}
	}
}
