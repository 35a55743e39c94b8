// Package qalsh implements QALSH, the query-aware LSH scheme of Huang,
// Feng, Zhang, Fang and Ng (PVLDB 2015) — the paper's representative RE
// (radius-enlarging) competitor. Each of m hash functions h_i(o) = a_i·o
// keeps the points sorted by hash value (the original's disk B+-trees,
// held in memory as sorted slices); at query time the bucket of width w is
// anchored at the query's own projection (hence "query-aware"), and
// virtual rehashing enlarges the search radius R = 1, c, c², …
// without building extra tables. A point becomes a candidate once it
// collides with the query in at least l of the m hash functions.
package qalsh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vec"
)

// Config controls index construction.
type Config struct {
	// C is the approximation ratio the parameters are derived for
	// (0 = 1.5, the evaluation default).
	C float64
	// W is the bucket width. 0 derives w = sqrt(8c²·ln c/(c²−1)), the
	// width minimizing the hash count in the QALSH paper.
	W float64
	// Delta is the error probability δ (0 = 1/e).
	Delta float64
	// BetaN sets the false-positive budget βn as an absolute count
	// (0 = 100, i.e. the paper's β = 100/n).
	BetaN int
	// Seed drives the hash draws.
	Seed int64
	// MaxHashes caps the derived number of hash functions m to bound
	// memory on small experiments (0 = 200).
	MaxHashes int
	// StartRadius is the first virtual-rehashing radius (0 derives it
	// from the data scale: 2 × the median of the first ≤ 512 positive
	// adjacent gaps in hash 0's key order, divided by w).
	StartRadius float64
}

// QueryStats reports per-query work.
type QueryStats struct {
	Rounds   int // virtual rehashing rounds
	Verified int // original-space distance computations
	Frontier int // points the key-order frontiers stepped over
}

// Index is a QALSH index over a fixed dataset.
type Index struct {
	cfg   Config
	data  [][]float64
	dim   int
	m     int     // number of hash functions
	l     int     // collision threshold
	w     float64 // bucket width
	funcs [][]float64
	lists [][]item  // per hash function, sorted by (key, id)
	qproj []float64 // scratch: query projections

	counts []int32 // per-point collision counters
	stamp  []int32 // epoch marks for counts
	seen   []int32 // epoch marks for verified points
	epoch  int32
}

// Build constructs the index. The number of hash functions follows the
// QALSH derivation: with p1 = p(1), p2 = p(c) the query-centred
// collision probabilities, collision threshold fraction
// α* = (z·p1 + p2)/(1 + z) with z = sqrt(ln(2/β)/ln(1/δ)), and
//
//	m = ⌈max( ln(1/δ)/(2(p1−α*)²), ln(2/β)/(2(α*−p2)²) )⌉,
//
// which is O(log n) — the space blow-up the PM-LSH paper criticizes.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("qalsh: Build requires a non-empty dataset")
	}
	if cfg.C == 0 {
		cfg.C = 1.5
	}
	if cfg.C <= 1 {
		return nil, fmt.Errorf("qalsh: approximation ratio must exceed 1, got %v", cfg.C)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1 / math.E
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("qalsh: Delta must be in (0,1), got %v", cfg.Delta)
	}
	if cfg.BetaN == 0 {
		cfg.BetaN = 100
	}
	if cfg.BetaN < 1 {
		return nil, fmt.Errorf("qalsh: BetaN must be positive, got %d", cfg.BetaN)
	}
	if cfg.MaxHashes == 0 {
		cfg.MaxHashes = 200
	}
	c := cfg.C
	if cfg.W == 0 {
		cfg.W = math.Sqrt(8 * c * c * math.Log(c) / (c*c - 1))
	}

	n := len(data)
	beta := float64(cfg.BetaN) / float64(n)
	if beta >= 1 {
		beta = 0.5
	}
	p1 := stats.QueryCentredCollisionProb(1, cfg.W)
	p2 := stats.QueryCentredCollisionProb(c, cfg.W)
	z := math.Sqrt(math.Log(2/beta) / math.Log(1/cfg.Delta))
	alpha := (z*p1 + p2) / (1 + z)
	m1 := math.Log(1/cfg.Delta) / (2 * (p1 - alpha) * (p1 - alpha))
	m2 := math.Log(2/beta) / (2 * (alpha - p2) * (alpha - p2))
	m := int(math.Ceil(math.Max(m1, m2)))
	if m < 1 {
		m = 1
	}
	if m > cfg.MaxHashes {
		m = cfg.MaxHashes
	}
	l := int(math.Ceil(alpha * float64(m)))
	if l < 1 {
		l = 1
	}
	if l > m {
		l = m
	}

	dim := len(data[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	funcs := make([][]float64, m)
	lists := make([][]item, m)
	for i := 0; i < m; i++ {
		a := make([]float64, dim)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		funcs[i] = a
		items := make([]item, n)
		for id, o := range data {
			items[id] = item{key: vec.Dot(a, o), id: int32(id)}
		}
		sort.Slice(items, func(x, y int) bool {
			if items[x].key != items[y].key {
				return items[x].key < items[y].key
			}
			return items[x].id < items[y].id
		})
		lists[i] = items
	}

	return &Index{
		cfg:    cfg,
		data:   data,
		dim:    dim,
		m:      m,
		l:      l,
		w:      cfg.W,
		funcs:  funcs,
		lists:  lists,
		qproj:  make([]float64, m),
		counts: make([]int32, n),
		stamp:  make([]int32, n),
		seen:   make([]int32, n),
	}, nil
}

// Len returns the dataset cardinality.
func (ix *Index) Len() int { return len(ix.data) }

// Dim returns the original dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// NumHashes returns the derived hash-function count m.
func (ix *Index) NumHashes() int { return ix.m }

// CollisionThreshold returns the derived threshold l.
func (ix *Index) CollisionThreshold() int { return ix.l }

// W returns the bucket width.
func (ix *Index) W() float64 { return ix.w }

// item is one point's hash value under one hash function.
type item struct {
	key float64
	id  int32
}

// frontier is the two-sided expansion state in one hash function's
// sorted list: the next items to visit leftward and rightward. A side
// is done once left < 0 or right == len(list).
type frontier struct {
	left, right int
}

// KNN answers a (c,k)-ANN query with the index's configured ratio.
func (ix *Index) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	res, _, err := ix.KNNWithStats(q, k)
	return res, err
}

// KNNWithStats performs virtual rehashing: in round j the query bucket
// in every tree is [h_i(q) − R_j·w/2, h_i(q) + R_j·w/2] with
// R_j = startRadius·c^j. Points reaching l collisions are verified.
// Terminates when k candidates lie within c·R_j or βn + k candidates
// have been verified.
func (ix *Index) KNNWithStats(q []float64, k int) ([]metrics.Neighbor, QueryStats, error) {
	var st QueryStats
	if len(q) != ix.dim {
		return nil, st, fmt.Errorf("qalsh: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, st, fmt.Errorf("qalsh: k must be positive, got %d", k)
	}
	n := len(ix.data)
	c := ix.cfg.C
	needed := ix.cfg.BetaN + k

	ix.epoch++
	epoch := ix.epoch

	fronts := make([]frontier, ix.m)
	for i := 0; i < ix.m; i++ {
		ix.qproj[i] = vec.Dot(ix.funcs[i], q)
		list := ix.lists[i]
		right := sort.Search(len(list), func(j int) bool { return list[j].key >= ix.qproj[i] })
		fronts[i] = frontier{left: right - 1, right: right}
	}

	r := ix.cfg.StartRadius
	if r == 0 {
		r = ix.autoStartRadius()
	}

	var cand []metrics.Neighbor
	for {
		st.Rounds++
		half := r * ix.w / 2
		// Extend every list's frontier to the current window, counting
		// collisions; verify points that reach the threshold.
		for i := 0; i < ix.m; i++ {
			f, list := &fronts[i], ix.lists[i]
			lo, hi := ix.qproj[i]-half, ix.qproj[i]+half
			for f.right < len(list) && list[f.right].key <= hi {
				ix.bump(list[f.right].id, epoch, q, k, &cand, &st)
				f.right++
				st.Frontier++
			}
			for f.left >= 0 && list[f.left].key >= lo {
				ix.bump(list[f.left].id, epoch, q, k, &cand, &st)
				f.left--
				st.Frontier++
			}
		}
		if st.Verified >= needed {
			break
		}
		if len(cand) == k && cand[k-1].Dist <= c*r {
			break
		}
		if st.Verified >= n {
			break
		}
		// Window already covers every list completely: nothing more to
		// collide; fall back to what we have.
		allDone := true
		for i, f := range fronts {
			if f.left >= 0 || f.right < len(ix.lists[i]) {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		r *= c
	}
	return cand, st, nil
}

// bump increments the collision counter of id and verifies the point
// once it reaches the threshold l, keeping cand the k nearest verified.
func (ix *Index) bump(id int32, epoch int32, q []float64, k int, cand *[]metrics.Neighbor, st *QueryStats) {
	if ix.stamp[id] != epoch {
		ix.stamp[id] = epoch
		ix.counts[id] = 0
	}
	ix.counts[id]++
	if ix.counts[id] == int32(ix.l) && ix.seen[id] != epoch {
		ix.seen[id] = epoch
		d := vec.L2(q, ix.data[id])
		st.Verified++
		*cand = vec.InsertBounded(*cand, metrics.Neighbor{ID: id, Dist: d}, k, metrics.NeighborDist)
	}
}

// autoStartRadius picks the initial R so the first window is at the
// scale of the closest projected gaps rather than of the raw data: the
// QALSH convention R = 1 assumes unit-scaled data.
func (ix *Index) autoStartRadius() float64 {
	// Median positive gap between adjacent keys at the low end of the
	// first list, scaled down by w: a window of ±w/2 then covers a
	// handful of points per list.
	list := ix.lists[0]
	var gaps []float64
	for j := 1; j < len(list) && len(gaps) < 512; j++ {
		if g := list[j].key - list[j-1].key; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return 1
	}
	sort.Float64s(gaps)
	g := gaps[len(gaps)/2]
	r := 2 * g / ix.w
	if r <= 0 {
		return 1
	}
	return r
}
