// Package e2lsh implements the basic E2LSH scheme described in
// Section 2.2 of the PM-LSH paper: L hash tables, each keyed by a
// compound hash G(o) of m bucketed p-stable functions. It answers the
// (r,c)-ball-cover query of Definition 3 by examining the query's
// bucket in every table (capped at 3L points, as in the classic
// analysis) and the c-ANN query by the radius-enlarging reduction of
// Section 2.2 ("processing a sequence of (r,c)-BC queries with
// r = 1, c, c², …").
//
// The package exists because every modern LSH method in the paper is a
// refinement of this scheme; having it executable makes the lineage
// testable (see the comparisons in the package tests) and provides the
// textbook baseline for the m/L parameter formulas
// m = log_{1/p2}(n), L = ⌈1/p1^m⌉.
package e2lsh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vec"
)

// Config controls index construction.
type Config struct {
	// R is the base radius the tables are tuned for (the "r" of the
	// (r,c)-BC query at scale 1). It must be positive; a natural choice
	// is the expected NN distance.
	R float64
	// C is the approximation ratio (must exceed 1; 0 = 1.5).
	C float64
	// W is the bucket width in units of R (0 = 4, the classic setting).
	W float64
	// M overrides the derived hash functions per table (0 = derive
	// m = ln n / ln(1/p2)).
	M int
	// L overrides the derived table count (0 = derive ⌈p1^{-m}⌉, capped
	// at MaxTables).
	L int
	// MaxTables bounds the derived L (0 = 32).
	MaxTables int
	// Seed drives hash draws.
	Seed int64
}

// Index is a basic E2LSH index over a fixed dataset.
type Index struct {
	cfg    Config
	data   [][]float64
	dim    int
	m, l   int
	p1, p2 float64
	tables []*lsh.Table
	seen   []int32
	epoch  int32
}

// Build constructs the index; data is retained, not copied.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("e2lsh: Build requires a non-empty dataset")
	}
	if cfg.R <= 0 {
		return nil, fmt.Errorf("e2lsh: base radius R must be positive, got %v", cfg.R)
	}
	if cfg.C == 0 {
		cfg.C = 1.5
	}
	if cfg.C <= 1 {
		return nil, fmt.Errorf("e2lsh: approximation ratio must exceed 1, got %v", cfg.C)
	}
	if cfg.W == 0 {
		cfg.W = 4
	}
	if cfg.W <= 0 {
		return nil, fmt.Errorf("e2lsh: bucket width must be positive, got %v", cfg.W)
	}
	if cfg.MaxTables == 0 {
		cfg.MaxTables = 32
	}
	n := len(data)
	dim := len(data[0])

	// Collision probabilities at distance R and cR for width W·R
	// buckets (the hash is applied to points scaled by 1/R, which is
	// the same as multiplying the width by R).
	w := cfg.W * cfg.R
	p1 := stats.CollisionProb(cfg.R, w)
	p2 := stats.CollisionProb(cfg.C*cfg.R, w)

	m := cfg.M
	if m == 0 {
		m = int(math.Ceil(math.Log(float64(n)) / math.Log(1/p2)))
		if m < 1 {
			m = 1
		}
		if m > 64 {
			m = 64
		}
	}
	l := cfg.L
	if l == 0 {
		l = int(math.Ceil(1 / math.Pow(p1, float64(m))))
		if l < 1 {
			l = 1
		}
		if l > cfg.MaxTables {
			l = cfg.MaxTables
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tables := make([]*lsh.Table, l)
	for i := range tables {
		g := lsh.NewCompoundHash(m, dim, w, rng)
		tables[i] = lsh.NewTable(g, data)
	}
	return &Index{
		cfg: cfg, data: data, dim: dim, m: m, l: l,
		p1: p1, p2: p2, tables: tables,
		seen: make([]int32, n),
	}, nil
}

// Len returns the dataset cardinality.
func (ix *Index) Len() int { return len(ix.data) }

// NumTables returns L.
func (ix *Index) NumTables() int { return ix.l }

// HashesPerTable returns m.
func (ix *Index) HashesPerTable() int { return ix.m }

// CollisionProbs returns (p1, p2) at the configured radius and width.
func (ix *Index) CollisionProbs() (float64, float64) { return ix.p1, ix.p2 }

// BallCover answers the (r,c)-BC query of Definition 3 at radius
// r = scale·R: it examines the query's bucket in each table, stopping
// after 3L candidate points, and returns a point within c·r if one was
// seen (nil otherwise). The classic analysis gives a constant success
// probability when some point lies within r.
//
// Only scale values that are powers of C correspond to the virtual
// rehashing tables; other values are accepted and treated literally.
func (ix *Index) BallCover(q []float64, scale float64) (*metrics.Neighbor, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("e2lsh: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("e2lsh: scale must be positive, got %v", scale)
	}
	r := scale * ix.cfg.R
	ix.epoch++
	best := metrics.Neighbor{ID: -1, Dist: math.Inf(1)}
	checked := 0
	budget := 3 * ix.l
	for _, t := range ix.tables {
		// Virtual rehashing (Section 3.1): at scale s, bucket indices
		// are divided by s, merging s^m original buckets.
		buckets := t.G.Buckets(q)
		if scale != 1 {
			for i := range buckets {
				buckets[i] = int(math.Floor(float64(buckets[i]) / scale))
			}
		}
		var ids []int32
		if scale == 1 {
			ids = t.Bucket(buckets)
		} else {
			ids = ix.scaledBucket(t, buckets, scale)
		}
		for _, id := range ids {
			if ix.seen[id] == ix.epoch {
				continue
			}
			ix.seen[id] = ix.epoch
			d := vec.L2(q, ix.data[id])
			checked++
			if d < best.Dist {
				best = metrics.Neighbor{ID: id, Dist: d}
			}
			if checked >= budget {
				break
			}
		}
		if checked >= budget {
			break
		}
	}
	if best.ID >= 0 && best.Dist <= ix.cfg.C*r {
		return &best, nil
	}
	return nil, nil
}

// scaledBucket gathers the ids of all original buckets that merge into
// the virtually-rehashed bucket at the given scale. Enumerating the
// scale^m combinations exactly is exponential; following the RE
// methods' observation that most mass concentrates near the query, the
// scan walks the query's own bucket neighborhood in each coordinate.
func (ix *Index) scaledBucket(t *lsh.Table, scaled []int, scale float64) []int32 {
	// The merged bucket at index b covers original indices
	// [b·scale, (b+1)·scale). Collect them coordinate-wise around the
	// query; to bound work, only the 2 nearest original indices per
	// coordinate are expanded (cap 2^m combinations via product walk).
	span := int(math.Ceil(scale))
	if span < 1 {
		span = 1
	}
	lo := make([]int, len(scaled))
	for i, b := range scaled {
		lo[i] = int(math.Ceil(float64(b) * scale))
	}
	var out []int32
	// Iterate over the cartesian product with an odometer, capped.
	idx := make([]int, len(scaled))
	const maxCombos = 4096
	combos := 0
	for {
		probe := make([]int, len(scaled))
		for i := range probe {
			probe[i] = lo[i] + idx[i]
		}
		out = append(out, t.Bucket(probe)...)
		combos++
		if combos >= maxCombos {
			break
		}
		// Advance the odometer.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < span {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	return out
}

// ANN answers a c²-ANN query by the reduction of Section 2.2: issue
// (r,c)-BC queries at r = R, cR, c²R, … until one returns a point. It
// returns nil if even the largest radius (maxScale·R, default 2¹⁶)
// finds nothing.
func (ix *Index) ANN(q []float64) (*metrics.Neighbor, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("e2lsh: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	const maxScale = 1 << 16
	for scale := 1.0; scale <= maxScale; scale *= ix.cfg.C {
		res, err := ix.BallCover(q, scale)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}
	return nil, nil
}

// KNN extends ANN to k results: it enlarges the radius until at least k
// distinct points have been seen, then returns the k nearest among
// them. This is the natural (c,k)-ANN generalization of the basic
// scheme (the paper's Definition 2 applied to E2LSH).
func (ix *Index) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("e2lsh: query has dimension %d, index expects %d", len(q), ix.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("e2lsh: k must be positive, got %d", k)
	}
	const maxScale = 1 << 16
	var out []metrics.Neighbor
	collected := map[int32]float64{}
	for scale := 1.0; scale <= maxScale; scale *= ix.cfg.C {
		ix.epoch++
		for _, t := range ix.tables {
			buckets := t.G.Buckets(q)
			if scale != 1 {
				for i := range buckets {
					buckets[i] = int(math.Floor(float64(buckets[i]) / scale))
				}
			}
			var ids []int32
			if scale == 1 {
				ids = t.Bucket(buckets)
			} else {
				ids = ix.scaledBucket(t, buckets, scale)
			}
			for _, id := range ids {
				if _, ok := collected[id]; !ok {
					collected[id] = vec.L2(q, ix.data[id])
				}
			}
		}
		if len(collected) >= k {
			break
		}
	}
	for id, d := range collected {
		out = append(out, metrics.Neighbor{ID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
