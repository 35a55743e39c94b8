package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/pmtree"
	"repro/internal/store"
)

// Engine is the sharded serving form of the index: N independent
// Index shards, ids striped across them, with snapshot-isolated reads.
// Queries never take a writer-blocking lock — they pin an atomically
// published per-shard snapshot, fan out, and merge — so a running
// Insert, Delete or Compact on one shard never stalls readers, and
// readers never stall each other.
//
// # Concurrency model
//
// Each shard is a left/right pair of complete Index replicas. An
// atomic pointer publishes the active half; readers pin it with a
// reference count (one atomic add in, one out — no lock). A mutation
// takes the shard's writer mutex, applies itself to the standby half
// (invisible to readers), publishes that half with one atomic store,
// waits for the old half's readers to drain, and applies the same
// mutation again so the halves converge. Every Index mutation is
// deterministic (seeded sampling, LIFO slot recycling), so the two
// halves evolve through identical states — which is also what makes a
// crashed-between-applies state impossible to observe: the flip is the
// single commit point.
//
// What blocks what: readers never block anyone and are never blocked.
// Writers to different shards run concurrently. Writers to one shard
// serialize on its mutex, and a writer waits (bounded by the longest
// in-flight read of that shard) for draining readers. The memory cost
// is one full replica per shard — the engine holds 2× the dataset.
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
	shards []*shard
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

// half is one replica of a shard: an Index plus the count of readers
// currently pinned to it.
type half struct {
	ix      *Index
	readers atomic.Int64
}

// shard is a left/right pair of halves. active publishes the readable
// one; mu serializes writers.
type shard struct {
	mu     sync.Mutex
	active atomic.Pointer[half]
	halves [2]*half
}

// pin returns the shard's active half with its reader count raised.
// The recheck handles the race with a concurrent flip: a reader that
// incremented the count of a half that was unpublished in between
// backs off and retries (the writer only waits on the half it just
// unpublished, and flips happen after the standby mutation, so a
// half's pointer identity never refers to two different states).
func (s *shard) pin() *half {
	for {
		h := s.active.Load()
		h.readers.Add(1)
		if s.active.Load() == h {
			return h
		}
		h.readers.Add(-1)
	}
}

// unpin releases a pinned half.
func (h *half) unpin() { h.readers.Add(-1) }

// waitDrain spins until no reader holds the half. Writers call it on
// the standby half (stragglers from the pin recheck only, gone within
// nanoseconds) and on the just-unpublished half (bounded by the
// longest in-flight read — new readers can no longer arrive, so the
// count strictly decreases).
func waitDrain(h *half) {
	for spins := 0; h.readers.Load() != 0; spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// write applies one deterministic mutation to both halves of the
// shard: standby first (readers still see the old half), then flip,
// then the drained old half. An error from the first application
// leaves both halves untouched and unflipped (Index mutations validate
// before mutating); an error from the second cannot happen without the
// halves diverging, which is unrecoverable by construction.
func (s *shard) write(op func(*Index) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	act := s.active.Load()
	stb := s.halves[0]
	if stb == act {
		stb = s.halves[1]
	}
	waitDrain(stb)
	if err := op(stb.ix); err != nil {
		return err
	}
	s.active.Store(stb)
	waitDrain(act)
	if err := op(act.ix); err != nil {
		panic("core: shard halves diverged: " + err.Error())
	}
	return nil
}

// newShard wraps an Index into a shard, cloning it for the second
// half.
func newShard(ix *Index) (*shard, error) {
	clone, err := cloneIndex(ix)
	if err != nil {
		return nil, err
	}
	s := &shard{}
	s.halves[0] = &half{ix: ix}
	s.halves[1] = &half{ix: clone}
	s.active.Store(s.halves[0])
	return s, nil
}

// cloneIndex replicates an index through a serialization round trip —
// the one mechanism already proven (by the serialization suite) to
// reproduce the full state an Index's deterministic evolution depends
// on: store bytes, free list, id map, tree structure, distance sample.
func cloneIndex(ix *Index) (*Index, error) {
	var buf bytes.Buffer
	// Sized once up front: grown from empty, the buffer would re-copy
	// (and re-clear) the stream at every doubling, which costs more than
	// writing it.
	buf.Grow(streamSizeHint(ix))
	if _, err := ix.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("core: cloning shard: %w", err)
	}
	clone, err := Load(&buf)
	if err != nil {
		return nil, fmt.Errorf("core: cloning shard: %w", err)
	}
	return clone, nil
}

// streamSizeHint returns the size of the stream WriteTo produces for a
// vector index, to within its small fixed-size fields: the dataset,
// the projection, the distance sample, the id maps, the codec
// parameters and the PM-tree's nodes. It is 0 for the Jaccard backend,
// whose stream has another shape.
func streamSizeHint(ix *Index) int {
	if ix.metric == metric.Jaccard {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m, dim := ix.cfg.M, ix.dim
	size := 256 + 8*(m*dim+len(ix.distCDF)+len(ix.data.Flat())+3*dim) +
		4*(len(ix.data.FreeList())+len(ix.rowOf))
	s := ix.tree.NumPivots()
	size += 8 * s * m
	ix.tree.Walk(func(n pmtree.NodeInfo) {
		entry := 8 * (m + 2 + 2*s) // routing: center, radius, parent distance, rings
		if n.Leaf {
			entry = 4 + 8*(m+1+s) // id, point, parent and pivot distances
		}
		size += 5 + n.NumEntries*entry
	})
	size += 4 + ix.tree.Tail()*(4+8*m) // tail: length, then id and point per row
	return size
}

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
		shards: make([]*shard, len(inners)),
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
		sh, err := newShard(ix)
		if err != nil {
			return nil, err
		}
		e.shards[s] = sh
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
// mutation changes, which is also why shard 0 can be read without a pin.
func (e *Engine) checkInsert(p []float64) error {
	if e.metric == metric.Jaccard {
		set, err := tokensOf(p)
		if err == nil {
			_, err = minhash.Canonicalize(set)
		}
		return err
	}
	_, _, err := e.shards[0].halves[0].ix.prepare(p)
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
	var gid int32
	err := e.shards[s].write(func(ix *Index) error {
		local, err := ix.Insert(p)
		if err != nil {
			return err
		}
		gid = local*int32(n) + int32(s)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return gid, nil
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
	err := e.shards[s].write(func(ix *Index) error { return ix.Delete(local) })
	if err != nil && len(e.shards) > 1 {
		// The inner error names the shard-local id; restate it globally.
		return fmt.Errorf("core: Delete of id %d (shard %d): %w", gid, s, err)
	}
	return err
}

// Compact rebuilds every shard over its live points, one shard at a
// time. Readers keep answering from each shard's published snapshot
// throughout — the rebuilt replica is swapped in with one atomic
// store, never blocking a query.
func (e *Engine) Compact() error {
	if e.dur != nil {
		return e.dur.compact(e)
	}
	return e.compactMem()
}

// compactMem is the in-memory compact (see insertMem).
func (e *Engine) compactMem() error {
	for s, sh := range e.shards {
		if err := sh.write(func(ix *Index) error { return ix.Compact() }); err != nil {
			return fmt.Errorf("core: compacting shard %d: %w", s, err)
		}
	}
	return nil
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
	for s, sh := range e.shards {
		if err := sh.write(func(ix *Index) error { return ix.SetQuantize(kind) }); err != nil {
			return fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return nil
}

// Quantize reports the screening codec the engine currently maintains.
func (e *Engine) Quantize() store.QuantKind {
	h := e.shards[0].pin()
	defer h.unpin()
	return h.ix.Quantize()
}

// Len returns the size of the global id space: the number of ids ever
// assigned across all shards.
func (e *Engine) Len() int {
	total := 0
	for _, sh := range e.shards {
		h := sh.pin()
		total += h.ix.Len()
		h.unpin()
	}
	return total
}

// LiveLen returns the number of live points across all shards.
func (e *Engine) LiveLen() int {
	total := 0
	for _, sh := range e.shards {
		h := sh.pin()
		total += h.ix.LiveLen()
		h.unpin()
	}
	return total
}

// EngineInfo is one consistent snapshot of the engine's observable
// state, gathered with every shard pinned at once — the fields are
// mutually consistent per shard (IDs, Live and Dead for a shard come
// from the same published snapshot), so invariants like Live ≤ IDs and
// Dead ≤ IDs − Live hold even while mutations run.
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
	// inserted since its last bulk load (Index.TailFraction): 0 after a
	// build or compaction, rising with every insert until it reaches
	// Config.AutoCompactFraction and the shard compacts itself. It is to
	// the speed of small-radius (tree-served) queries what Dead is to
	// memory — the decay a Compact undoes.
	TailFraction []float64
}

// Info returns one consistent snapshot of the engine's observable
// state. Unlike ad-hoc sequences of Len/LiveLen/Quantize calls — each
// of which pins and unpins on its own, so a concurrent mutator can
// land between them — Info pins every shard once and reads all fields
// from those snapshots.
func (e *Engine) Info() EngineInfo {
	pins := e.pinAll()
	defer unpinAll(pins)
	info := EngineInfo{
		Dim:      e.dim,
		M:        pins[0].ix.M(),
		Metric:   e.metric,
		Shards:   len(e.shards),
		Quantize: pins[0].ix.Quantize(),

		TailFraction: make([]float64, len(pins)),
	}
	for s, h := range pins {
		info.TailFraction[s] = h.ix.TailFraction()
		info.IDs += h.ix.Len()
		info.Live += h.ix.LiveLen()
		info.Dead += h.ix.Dead()
		info.Compactions += h.ix.Compactions()
	}
	return info
}

// IsLive reports whether the global id refers to a live point.
func (e *Engine) IsLive(gid int32) bool {
	if gid < 0 {
		return false
	}
	s, local := e.shardOf(gid)
	h := e.shards[s].pin()
	defer h.unpin()
	return h.ix.IsLive(local)
}

// Dim returns the original dimensionality (0 for the Jaccard
// backend, whose sets have no fixed dimensionality).
func (e *Engine) Dim() int { return e.dim }

// Metric returns the native metric every shard serves.
func (e *Engine) Metric() metric.Kind { return e.metric }

// M returns the projected dimensionality. Immutable after build and
// identical across shards.
func (e *Engine) M() int { return e.shards[0].halves[0].ix.M() }

// DeriveParams exposes the confidence-interval constants for a given
// approximation ratio. The derivation depends only on build-time
// configuration (m, α1, the κ calibration), which every shard shares.
func (e *Engine) DeriveParams(c float64) (Params, error) {
	h := e.shards[0].pin()
	defer h.unpin()
	return h.ix.DeriveParams(c)
}

// pinAll pins every shard's active half. The per-shard snapshots are
// each internally consistent (a mutation is visible in full or not at
// all); a query overlapping mutations to several shards may see some
// shards before and some after — the same per-operation linearization
// the single RWMutex engine provided for operations on disjoint ids.
func (e *Engine) pinAll() []*half {
	pins := make([]*half, len(e.shards))
	for s, sh := range e.shards {
		pins[s] = sh.pin()
	}
	return pins
}

func unpinAll(pins []*half) {
	for _, h := range pins {
		h.unpin()
	}
}
