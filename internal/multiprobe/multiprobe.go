// Package multiprobe implements Multi-Probe LSH (Lv, Josephson, Wang,
// Charikar, Li — VLDB 2007), the paper's representative PS
// (probing-sequence) competitor. Instead of one bucket per table, each
// query probes a sequence of nearby buckets ordered by a query-directed
// score, so fewer hash tables reach a target recall.
//
// The probing sequence is generated with the min-heap over perturbation
// sets from the original paper: the 2·m (coordinate, ±1) perturbations
// are sorted by the query's squared distance to the corresponding
// bucket boundary, and sets are expanded with the "shift" and "expand"
// operations, which enumerate subsets in non-decreasing score order.
package multiprobe

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// Defaults tuned to the Multi-Probe paper's recommendations.
const (
	DefaultTables         = 8
	DefaultHashesPerTable = 12
	DefaultProbes         = 64
)

// Config controls index construction and probing.
type Config struct {
	// L is the number of hash tables (0 = DefaultTables).
	L int
	// M is the number of hash functions concatenated per table
	// (0 = DefaultHashesPerTable).
	M int
	// W is the bucket width; 0 auto-tunes it to four times the 5th
	// percentile of sampled pairwise distances, putting near neighbors
	// in the same or an adjacent bucket.
	W float64
	// Probes is the number of buckets probed per table per query
	// (0 = DefaultProbes).
	Probes int
	// Seed drives hash draws and the width sample.
	Seed int64
}

// QueryStats reports per-query work.
type QueryStats struct {
	BucketsProbed int
	Verified      int // original-space distance computations
}

// Index is a Multi-Probe LSH index over a fixed dataset.
type Index struct {
	cfg    Config
	data   [][]float64
	dim    int
	tables []*lsh.Table
	seen   []int32
	epoch  int32
}

// Build constructs the index; data is retained, not copied.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("multiprobe: Build requires a non-empty dataset")
	}
	if cfg.L == 0 {
		cfg.L = DefaultTables
	}
	if cfg.M == 0 {
		cfg.M = DefaultHashesPerTable
	}
	if cfg.Probes == 0 {
		cfg.Probes = DefaultProbes
	}
	if cfg.L < 1 || cfg.M < 1 || cfg.Probes < 1 {
		return nil, fmt.Errorf("multiprobe: L, M and Probes must be positive (got %d, %d, %d)",
			cfg.L, cfg.M, cfg.Probes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.W == 0 {
		cfg.W = autoWidth(data, rng)
	}
	if cfg.W <= 0 {
		return nil, fmt.Errorf("multiprobe: bucket width must be positive, got %v", cfg.W)
	}
	dim := len(data[0])
	tables := make([]*lsh.Table, cfg.L)
	for i := range tables {
		g := lsh.NewCompoundHash(cfg.M, dim, cfg.W, rng)
		tables[i] = lsh.NewTable(g, data)
	}
	return &Index{
		cfg:    cfg,
		data:   data,
		dim:    dim,
		tables: tables,
		seen:   make([]int32, len(data)),
	}, nil
}

// autoWidth samples pairwise distances and returns 4× the 5th
// percentile, a width at which near neighbors collide with high
// probability while the bulk of the dataset does not.
func autoWidth(data [][]float64, rng *rand.Rand) float64 {
	n := len(data)
	if n < 2 {
		return 1
	}
	samples := 2000
	if max := n * (n - 1) / 2; samples > max {
		samples = max
	}
	ds := make([]float64, 0, samples)
	// Bound the attempts so duplicate-heavy datasets cannot stall the
	// sampler; whatever positive distances were found by then suffice.
	for attempts := 0; len(ds) < samples && attempts < 20*samples; attempts++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if d := vec.L2(data[i], data[j]); d > 0 {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 1
	}
	sort.Float64s(ds)
	return 4 * ds[len(ds)/20]
}

// Len returns the dataset cardinality.
func (ix *Index) Len() int { return len(ix.data) }

// Dim returns the original dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// W returns the (possibly auto-tuned) bucket width.
func (ix *Index) W() float64 { return ix.cfg.W }

// perturbation enumeration --------------------------------------------

// boundary holds, for one (coordinate, direction) perturbation, the
// squared distance from the query's position inside its bucket to the
// boundary being crossed.
type boundary struct {
	coord int
	delta int // -1 or +1
	score float64
}

// probeSet is a subset of indices into the sorted boundary list.
type probeSet struct {
	idxs  []int
	score float64
}

type probeHeap []probeSet

func (h probeHeap) Len() int            { return len(h) }
func (h probeHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h probeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x interface{}) { *h = append(*h, x.(probeSet)) }
func (h *probeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// probeSequence lazily yields perturbation vectors for one table in
// non-decreasing score order. The first yielded probe is the home
// bucket (empty perturbation).
type probeSequence struct {
	sorted []boundary
	h      probeHeap
	home   bool
}

func newProbeSequence(g *lsh.CompoundHash, q []float64) *probeSequence {
	funcs := g.Funcs()
	sorted := make([]boundary, 0, 2*len(funcs))
	for i, f := range funcs {
		raw := f.Raw(q)
		frac := raw/f.W - math.Floor(raw/f.W) // position in bucket, [0,1)
		// Distance (in absolute units) to the lower and upper boundary.
		dLow := frac * f.W
		dHigh := (1 - frac) * f.W
		sorted = append(sorted,
			boundary{coord: i, delta: -1, score: dLow * dLow},
			boundary{coord: i, delta: +1, score: dHigh * dHigh},
		)
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].score < sorted[b].score })
	ps := &probeSequence{sorted: sorted}
	if len(sorted) > 0 {
		heap.Push(&ps.h, probeSet{idxs: []int{0}, score: sorted[0].score})
	}
	return ps
}

// valid reports whether the set perturbs each coordinate at most once.
func (ps *probeSequence) valid(s probeSet) bool {
	seen := make(map[int]bool, len(s.idxs))
	for _, i := range s.idxs {
		c := ps.sorted[i].coord
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// next returns the next perturbation as per-coordinate deltas
// (nil = home bucket). ok is false when the sequence is exhausted.
func (ps *probeSequence) next() (deltas []boundary, ok bool) {
	if !ps.home {
		ps.home = true
		return nil, true
	}
	for ps.h.Len() > 0 {
		s := heap.Pop(&ps.h).(probeSet)
		// Generate successors regardless of validity (shift & expand).
		last := s.idxs[len(s.idxs)-1]
		if last+1 < len(ps.sorted) {
			// shift: replace the maximum element by its successor.
			shift := probeSet{idxs: append(append([]int(nil), s.idxs[:len(s.idxs)-1]...), last+1)}
			shift.score = s.score - ps.sorted[last].score + ps.sorted[last+1].score
			heap.Push(&ps.h, shift)
			// expand: add the successor.
			expand := probeSet{idxs: append(append([]int(nil), s.idxs...), last+1)}
			expand.score = s.score + ps.sorted[last+1].score
			heap.Push(&ps.h, expand)
		}
		if ps.valid(s) {
			out := make([]boundary, len(s.idxs))
			for i, idx := range s.idxs {
				out[i] = ps.sorted[idx]
			}
			return out, true
		}
	}
	return nil, false
}

// KNN answers a k-NN query, probing Config.Probes buckets per table.
func (ix *Index) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, _, err := ix.KNNWithStats(q, k)
	return res, err
}

// KNNWithStats probes, for every table, the home bucket plus the
// highest-scoring perturbed buckets, verifies all collected candidates
// in the original space and returns the k nearest.
func (ix *Index) KNNWithStats(q []float64, k int) ([]metrics.Neighbor, QueryStats, error) {
	var st QueryStats
	if len(q) != ix.dim {
		return nil, st, fmt.Errorf("multiprobe: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, st, fmt.Errorf("multiprobe: k must be positive, got %d", k)
	}
	ix.epoch++
	epoch := ix.epoch

	var cand []metrics.Neighbor
	for _, table := range ix.tables {
		base := table.G.Buckets(q)
		seq := newProbeSequence(table.G, q)
		probe := make([]int, len(base))
		for p := 0; p < ix.cfg.Probes; p++ {
			deltas, ok := seq.next()
			if !ok {
				break
			}
			copy(probe, base)
			for _, b := range deltas {
				probe[b.coord] += b.delta
			}
			st.BucketsProbed++
			for _, id := range table.Bucket(probe) {
				if ix.seen[id] == epoch {
					continue
				}
				ix.seen[id] = epoch
				d := vec.L2(q, ix.data[id])
				st.Verified++
				cand = vec.InsertBounded(cand, metrics.Neighbor{ID: id, Dist: d}, k, metrics.NeighborDist)
			}
		}
	}
	return cand, st, nil
}
