package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/minhash"
)

// Jaccard backend: a set shard is one MinHash band-LSH index
// (internal/minhash) — no store, projection or tree. Sets cross the
// engine's []float64 surfaces as tokens encoded in float64s (exact for
// non-negative integers up to 2^53), which is what lets the sharded
// Engine, the WAL and the HTTP layer serve set data unchanged.

// maxToken is the largest set token the float64 bridge can carry
// exactly (every integer up to 2^53 has an exact float64).
const maxToken = uint64(1) << 53

// setShard is an engine shard over token sets. Delete, Len, LiveLen and
// IsLive are the embedded index's; it has no view (load is nil), each
// call taking the index's own lock.
type setShard struct {
	*minhash.Index
	onCompact atomic.Pointer[func(time.Duration)] // see Engine.OnCompact
}

// tokensOf decodes a float64-bridged token set. Every element must be
// a non-negative integer at most 2^53 — beyond that float64 cannot
// carry the token exactly and the bridge would silently corrupt it.
func tokensOf(q []float64) ([]uint64, error) {
	out := make([]uint64, len(q))
	for i, v := range q {
		if v < 0 || v != math.Trunc(v) || v > float64(maxToken) {
			return nil, fmt.Errorf("core: jaccard sets carry tokens as float64s: element %d (%v) is not an integer in [0, 2^53]", i, v)
		}
		out[i] = uint64(v)
	}
	return out, nil
}

// searchView is Search for a set shard, which has no view: candidates
// from band-bucket collisions, exact-Jaccard rescore, threshold filter,
// distances 1 − J. C and Alpha1 have no meaning here (the b×r band
// layout plays the role of the confidence parameters) and are ignored.
// o.Stats receives one round whose Verified counts the exact rescores;
// the projected counters stay zero — there is no projected space.
func (s *setShard) searchView(ctx context.Context, _ *view, q []float64, k int, o SearchOptions, _ bool) ([]Result, error) {
	searching.Add(1)
	defer searching.Add(-1)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	set, err := tokensOf(q)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	nb, st, err := s.Index.Search(set, k, minhash.SearchOpt{Filter: o.Filter, Budget: o.Budget})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if o.Stats != nil {
		*o.Stats = QueryStats{Rounds: 1, Verified: st.Verified}
	}
	return nb, nil
}

// SearchBall is a heuristic for set shards (no χ² machinery backs the
// (r,c)-BC guarantee here): the closest band-collision candidate within
// distance c·r, or nil when none collides that close.
func (s *setShard) SearchBall(ctx context.Context, q []float64, r float64, o SearchOptions) (*Result, error) {
	if r < 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("core: jaccard distance radius must be in [0,1], got %v", r)
	}
	c := o.C
	if c <= 0 {
		c = DefaultC
	}
	res, err := s.searchView(ctx, nil, q, 1, o, false)
	if err != nil || len(res) == 0 || res[0].Dist > c*r {
		return nil, err
	}
	return &res[0], nil
}

// Insert adds one set, given as float64-bridged tokens.
func (s *setShard) Insert(p []float64) (int32, error) {
	set, err := tokensOf(p)
	if err != nil {
		return 0, err
	}
	id, err := s.Index.Insert(set)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return id, nil
}

// check reports the error Insert would refuse p with.
func (s *setShard) check(p []float64) error {
	set, err := tokensOf(p)
	if err == nil {
		_, err = minhash.Canonicalize(set)
	}
	return err
}

// Compact rebuilds the band tables over the live sets (see
// minhash.Index.Compact) and tells the observer how long it took.
func (s *setShard) Compact() error {
	start := time.Now()
	if err := s.Index.Compact(); err != nil {
		return err
	}
	if fn := s.onCompact.Load(); fn != nil {
		(*fn)(time.Since(start))
	}
	return nil
}

// Dim and M are 0: sets have no fixed dimensionality and no projection.
func (s *setShard) Dim() int            { return 0 }
func (s *setShard) M() int              { return 0 }
func (s *setShard) Metric() metric.Kind { return metric.Jaccard }

func (s *setShard) DeriveParams(float64) (Params, error) {
	return Params{}, fmt.Errorf("core: the jaccard backend has no χ² confidence parameters")
}

func (s *setShard) load() *view { return nil }

func (s *setShard) addInfo(info *EngineInfo, _ int) {
	ids, live, dead, compactions := s.Counts()
	info.IDs += ids
	info.Live += live
	info.Dead += dead
	info.Compactions += int64(compactions)
}

func (s *setShard) observe(fn *func(time.Duration)) { s.onCompact.Store(fn) }

// writeBody writes the shard's PMH1 stream.
func (s *setShard) writeBody(w io.Writer) error {
	_, err := s.WriteTo(w)
	return err
}
