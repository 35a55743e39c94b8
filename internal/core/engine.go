package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/store"
)

// Engine is the sharded serving form of the index: N independent
// Index shards, ids striped across them, with snapshot-isolated reads.
// Queries take no lock — they load each shard's published view, fan
// out, and merge — so a running Insert, Delete or Compact on one shard
// never stalls readers, and readers never stall each other.
//
// # Concurrency model
//
// A shard is one Index holding one copy of its data, which it publishes
// as an immutable view (see view) through an atomic pointer.
//
//   - Immutable: a published view — every array cut at the length it
//     had, the frozen PM-tree nodes, the distance sample, the codec. A
//     query loads it with one atomic load and reads nothing else.
//   - Append-only between compactions: data rows, projected rows, the
//     id → row and row → id maps, quantized codes, the dead-row list. An
//     insert writes past every earlier view's lengths (a growth
//     reallocation leaves the old array to the old views); nothing is
//     recycled or overwritten.
//   - An epoch: a delete is one atomic store of a delete epoch on the
//     id. A view published earlier carries an earlier epoch and still
//     sees the point; views from then on skip it.
//   - Rebuilt aside: Compact and SetQuantize fill fresh arrays and
//     publish them; the old ones go with the last query reading them.
//
// Publishing is one atomic store, the single commit point: a reader
// sees a mutation whole or not at all, a SearchBatch answers every
// query from the views it loaded once, Info reads each shard's figures
// from one view.
//
// What blocks what: readers block no one and are never blocked — a
// compaction runs under its shard's writer mutex while queries keep
// answering from the view they hold. Writers to different shards run
// concurrently; writers to one shard take turns, so a mutation can wait
// out that shard's compaction (one bulk load). Memory is 1× the dataset
// plus the projected rows, and whatever old views running queries hold.
//
// A Jaccard shard is one minhash.Index behind its own reader/writer
// lock (see package minhash): a mutation holds the write side for
// microseconds, Compact builds its tables under the read side.
//
// # Ids
//
// Global ids stripe across shards: global id g lives on shard g mod N
// as local id g div N. BuildEngine routes row i to shard i mod N and
// Insert routes round-robin, so with N = 1 — the default — global and
// local ids coincide and the engine is element-wise identical
// (answers, statistics, serialized bytes) to a bare Index. Ids are
// never reused or remapped, exactly like the Index contract. With
// N > 1, sequential inserts still receive consecutive ids; concurrent
// inserts receive unique ids that are monotone per shard but may
// interleave globally out of call order.
type Engine struct {
	shards []*Index
	dim    int
	// metric is the native metric every shard serves (newEngine rejects
	// mixed-metric shard sets, so one tag describes the whole engine).
	metric metric.Kind

	// rr routes Insert round-robin: the next global id is (total ever
	// assigned), and its shard is that value mod N. Concurrent inserts
	// claim slots with one atomic add.
	rr atomic.Int64

	// dur, when non-nil, write-ahead logs every mutation before it is
	// applied (see durable.go). Queries are unaffected.
	dur *durable
}

// MaxShards bounds Config.Shards — past a few hundred shards the
// per-shard candidate budgets (βn/N + k each) dominate the merged
// result and the quality/work tradeoff degrades.
const MaxShards = 256

// BuildEngine constructs a sharded engine over data: row i becomes
// global id i on shard i mod N. cfg.Shards selects the shard count (0
// and 1 both build a single shard, which answers element-wise
// identically to Build). Every shard needs at least one row. All
// shards share cfg.Seed, so they project into the same m-dimensional
// space — required for cross-shard closest-pair enumeration.
func BuildEngine(data [][]float64, cfg Config) (*Engine, error) {
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("core: unknown metric %d", uint8(cfg.Metric))
	}
	if cfg.Metric == metric.Jaccard {
		return nil, fmt.Errorf("core: the jaccard metric indexes sets, not vectors; use BuildSetsEngine")
	}
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 || n > MaxShards {
		return nil, fmt.Errorf("core: Shards must be in [0, %d], got %d", MaxShards, cfg.Shards)
	}
	if len(data) < n {
		return nil, fmt.Errorf("core: %d shards need at least %d points, got %d", n, n, len(data))
	}
	cfg.Shards = 0 // the inner per-shard indexes are always 1-shard
	inners := make([]*Index, n)
	if n == 1 {
		ix, err := Build(data, cfg)
		if err != nil {
			return nil, err
		}
		inners[0] = ix
	} else {
		// The metric reduction runs once over the whole dataset before
		// sharding: the InnerProduct scale S is a global property (each
		// shard reducing its own slice would put shards in incompatible
		// internal spaces and break cross-shard merging).
		ndim := len(data[0])
		scale := 0.0
		reduced := cfg.Metric != metric.L2
		if reduced {
			var err error
			data, scale, err = reduceRows(data, cfg.Metric)
			if err != nil {
				return nil, err
			}
		}
		for s := 0; s < n; s++ {
			rows := make([][]float64, 0, (len(data)+n-1-s)/n)
			for i := s; i < len(data); i += n {
				rows = append(rows, data[i])
			}
			var ix *Index
			var err error
			if reduced {
				var st *store.Store
				st, err = store.FromRows(rows)
				if err != nil {
					return nil, fmt.Errorf("core: %w", err)
				}
				ix, err = buildInternal(st, cfg, ndim, scale)
			} else {
				ix, err = Build(rows, cfg)
			}
			if err != nil {
				return nil, err
			}
			inners[s] = ix
		}
	}
	return newEngine(inners)
}

// BuildSetsEngine constructs a sharded Jaccard engine over
// uint64-token sets: set i becomes global id i on shard i mod N (the
// same striping as BuildEngine). Every shard shares cfg.Seed, so all
// shards hash bands into one space — required for the cross-shard
// pair join.
func BuildSetsEngine(sets [][]uint64, cfg Config) (*Engine, error) {
	if cfg.Metric != metric.Jaccard {
		return nil, fmt.Errorf("core: BuildSetsEngine serves the jaccard metric, not %v; use BuildEngine for vector data", cfg.Metric)
	}
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 || n > MaxShards {
		return nil, fmt.Errorf("core: Shards must be in [0, %d], got %d", MaxShards, cfg.Shards)
	}
	if len(sets) < n {
		return nil, fmt.Errorf("core: %d shards need at least %d sets, got %d", n, n, len(sets))
	}
	cfg.Shards = 0
	inners := make([]*Index, n)
	for s := 0; s < n; s++ {
		rows := make([][]uint64, 0, (len(sets)+n-1-s)/n)
		for i := s; i < len(sets); i += n {
			rows = append(rows, sets[i])
		}
		ix, err := BuildSets(rows, cfg)
		if err != nil {
			return nil, err
		}
		inners[s] = ix
	}
	return newEngine(inners)
}

// newEngine assembles an engine from per-shard indexes (local row i of
// shard s is global id i·N + s).
func newEngine(inners []*Index) (*Engine, error) {
	e := &Engine{
		shards: inners,
		dim:    inners[0].Dim(),
		metric: inners[0].Metric(),
	}
	total := 0
	for s, ix := range inners {
		if ix.Metric() != e.metric {
			return nil, fmt.Errorf("core: shard %d serves metric %v, shard 0 serves %v — mixed-metric engines are not supported", s, ix.Metric(), e.metric)
		}
		if ix.Dim() != e.dim {
			return nil, fmt.Errorf("core: shard %d has dimension %d, shard 0 has %d", s, ix.Dim(), e.dim)
		}
		if e.metric == metric.InnerProduct && ix.MIPScale() != inners[0].MIPScale() {
			return nil, fmt.Errorf("core: shard %d has inner-product scale %v, shard 0 has %v — shards must share one build-time scale", s, ix.MIPScale(), inners[0].MIPScale())
		}
		if e.metric == metric.Jaccard {
			a, b := ix.mh, inners[0].mh
			if a.Seed() != b.Seed() || a.Bands() != b.Bands() || a.Rows() != b.Rows() || a.Threshold() != b.Threshold() {
				return nil, fmt.Errorf("core: shard %d's minhash layout (bands %d × rows %d, seed %d, threshold %v) differs from shard 0's — shards must share one band space", s, a.Bands(), a.Rows(), a.Seed(), a.Threshold())
			}
		}
		total += ix.Len()
	}
	e.rr.Store(int64(total))
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// shardOf splits a non-negative global id into its shard and local id.
func (e *Engine) shardOf(gid int32) (int, int32) {
	n := int32(len(e.shards))
	return int(gid % n), gid / n
}

// Insert adds one point and returns its global id. The point's shard
// is chosen round-robin; only that shard's writer mutex is taken, so
// inserts to different shards run concurrently and queries are never
// blocked. With durability enabled the insert is logged before it is
// applied, and all durable mutations serialize on one mutex.
func (e *Engine) Insert(p []float64) (int32, error) {
	if e.dur != nil {
		return e.dur.insert(e, p)
	}
	return e.insertMem(p)
}

// checkInsert reports the error the shard that receives p would reject
// it with (see Index.prepare), before anything is claimed or logged.
// Which shard that is does not matter: metric, dimension, inner-product
// scale and projection are build-time state every shard shares and no
// mutation changes.
func (e *Engine) checkInsert(p []float64) error {
	if e.metric == metric.Jaccard {
		set, err := tokensOf(p)
		if err == nil {
			_, err = minhash.Canonicalize(set)
		}
		return err
	}
	_, _, err := e.shards[0].prepare(p)
	return err
}

// insertMem is the in-memory insert: the non-durable path, and what
// both live durable inserts and WAL replay apply. A point the shard
// would reject is turned away first, so a round-robin slot is claimed
// only by an insert that is then applied.
func (e *Engine) insertMem(p []float64) (int32, error) {
	if err := e.checkInsert(p); err != nil {
		return 0, err
	}
	n := len(e.shards)
	s := int((e.rr.Add(1) - 1) % int64(n))
	local, err := e.shards[s].Insert(p)
	if err != nil {
		return 0, err
	}
	return local*int32(n) + int32(s), nil
}

// Delete removes the point with the given global id (same contract as
// Index.Delete, auto-compaction included — a shard whose tombstone
// share crosses Config.AutoCompactFraction compacts itself without
// blocking readers, as one whose tail share does on Insert).
func (e *Engine) Delete(gid int32) error {
	if e.dur != nil {
		return e.dur.delete(e, gid)
	}
	return e.deleteMem(gid)
}

// deleteMem is the in-memory delete (see insertMem).
func (e *Engine) deleteMem(gid int32) error {
	if gid < 0 {
		return fmt.Errorf("core: Delete of unknown id %d (ids assigned so far: %d)", gid, e.Len())
	}
	s, local := e.shardOf(gid)
	err := e.shards[s].Delete(local)
	if err != nil && len(e.shards) > 1 {
		// The inner error names the shard-local id; restate it globally.
		return fmt.Errorf("core: Delete of id %d (shard %d): %w", gid, s, err)
	}
	return err
}

// Compact rebuilds every shard over its live points, one shard at a
// time. Readers keep answering from each shard's published view
// throughout — the rebuilt state is swapped in with one atomic store,
// never blocking a query.
func (e *Engine) Compact() error {
	if e.dur != nil {
		return e.dur.compact(e)
	}
	return e.compactMem()
}

// compactMem is the in-memory compact (see insertMem).
func (e *Engine) compactMem() error {
	for s, ix := range e.shards {
		if err := ix.Compact(); err != nil {
			return fmt.Errorf("core: compacting shard %d: %w", s, err)
		}
	}
	return nil
}

// OnCompact registers fn to be told how long every completed shard
// compaction took — explicit or triggered by an Insert or Delete
// reaching Config.AutoCompactFraction: the time that shard's other
// mutations waited. fn runs on the compacting goroutine with the
// shard's writer mutex held, so it must be quick and must not call back
// into the engine's mutations. A later call replaces the observer.
func (e *Engine) OnCompact(fn func(time.Duration)) {
	for _, ix := range e.shards {
		ix.onCompact.Store(&fn)
	}
}

// SetQuantize installs, refits, or drops the screening codec on every
// shard (see Index.SetQuantize).
func (e *Engine) SetQuantize(kind store.QuantKind) error {
	if e.dur != nil {
		return e.dur.setQuantize(e, kind)
	}
	return e.setQuantizeMem(kind)
}

// setQuantizeMem is the in-memory codec switch (see insertMem).
func (e *Engine) setQuantizeMem(kind store.QuantKind) error {
	for s, ix := range e.shards {
		if err := ix.SetQuantize(kind); err != nil {
			return fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return nil
}

// Quantize reports the screening codec the engine currently maintains.
func (e *Engine) Quantize() store.QuantKind { return e.shards[0].Quantize() }

// Len returns the size of the global id space: the number of ids ever
// assigned across all shards.
func (e *Engine) Len() int {
	total := 0
	for _, ix := range e.shards {
		total += ix.Len()
	}
	return total
}

// LiveLen returns the number of live points across all shards.
func (e *Engine) LiveLen() int {
	total := 0
	for _, ix := range e.shards {
		total += ix.LiveLen()
	}
	return total
}

// EngineInfo is one consistent snapshot of the engine's observable
// state — the fields are mutually consistent per shard (IDs, Live, Dead
// and both fractions of a shard come from the same published view), so
// invariants like Live ≤ IDs and Dead ≤ IDs − Live hold even while
// mutations run.
type EngineInfo struct {
	// Dim is the original dimensionality; M the projected one. Both
	// are 0 for the Jaccard backend (variable-length sets, no
	// projection).
	Dim, M int
	// Metric is the native metric every shard serves.
	Metric metric.Kind
	// Shards is the shard count (1 unless built with Config.Shards > 1).
	Shards int
	// IDs is the size of the global id space: ids ever assigned.
	IDs int
	// Live is the number of live (not deleted) points.
	Live int
	// Dead is the number of tombstoned storage rows awaiting Compact.
	Dead int
	// Quantize is the screening codec currently maintained.
	Quantize store.QuantKind
	// Compactions counts Compact operations (explicit and auto)
	// completed since the engine was built or loaded.
	Compactions int64
	// TailFraction is, per shard, the share of the PM-tree's rows
	// inserted since its last bulk load (view.tailFraction): 0 after a
	// build or compaction, rising with every insert until it reaches
	// Config.AutoCompactFraction and the shard compacts itself. It is to
	// the speed of small-radius (tree-served) queries what Dead is to
	// memory — the decay a Compact undoes.
	TailFraction []float64
	// DeadFraction is, per shard, the share of the vector store's rows
	// that are tombstoned (view.deadFraction): 0 after a build or
	// compaction, rising with every delete until it reaches
	// Config.AutoCompactFraction and the shard compacts itself. With
	// TailFraction it says how far each shard is from auto-compaction.
	DeadFraction []float64
}

// Info returns one consistent snapshot of the engine's observable
// state. Unlike ad-hoc sequences of Len/LiveLen/Quantize calls — each
// of which loads the then-current view on its own, so a concurrent
// mutator can land between them — Info loads every shard's view once
// and reads all of that shard's fields from it.
func (e *Engine) Info() EngineInfo {
	info := EngineInfo{
		Dim:      e.dim,
		M:        e.M(),
		Metric:   e.metric,
		Shards:   len(e.shards),
		Quantize: e.Quantize(),

		TailFraction: make([]float64, len(e.shards)),
		DeadFraction: make([]float64, len(e.shards)),
	}
	for s, ix := range e.shards {
		if e.metric == metric.Jaccard {
			ids, live, dead, compactions := ix.mh.Counts()
			info.IDs += ids
			info.Live += live
			info.Dead += dead
			info.Compactions += int64(compactions)
			continue
		}
		v := ix.view.Load()
		info.TailFraction[s] = v.tailFraction()
		info.DeadFraction[s] = v.deadFraction(ix.dim)
		info.IDs += len(v.rowOf)
		info.Live += v.live()
		info.Dead += len(v.deadRows)
		info.Compactions += v.compactions
	}
	return info
}

// IsLive reports whether the global id refers to a live point.
func (e *Engine) IsLive(gid int32) bool {
	if gid < 0 {
		return false
	}
	s, local := e.shardOf(gid)
	return e.shards[s].IsLive(local)
}

// Dim returns the original dimensionality (0 for the Jaccard
// backend, whose sets have no fixed dimensionality).
func (e *Engine) Dim() int { return e.dim }

// Metric returns the native metric every shard serves.
func (e *Engine) Metric() metric.Kind { return e.metric }

// M returns the projected dimensionality. Immutable after build and
// identical across shards.
func (e *Engine) M() int { return e.shards[0].M() }

// DeriveParams exposes the confidence-interval constants for a given
// approximation ratio. The derivation depends only on build-time
// configuration (m, α1, the κ calibration), which every shard shares.
func (e *Engine) DeriveParams(c float64) (Params, error) { return e.shards[0].DeriveParams(c) }
