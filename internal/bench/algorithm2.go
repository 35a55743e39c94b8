package bench

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/pmtree"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/vec"
)

// paperM is the hash count of the paper's evaluation (Section 6.1),
// which the harness reproduces wherever it builds PM-LSH; the library's
// default m is larger (core.DefaultM). Every other setting is core's
// exported default.
const paperM = 15

// algorithm2 is the paper's Algorithm 2 as printed: every round issues a
// fresh projected range query range(q′, t·r) from the root, verifies the
// points it has not seen yet in the order the query returned them, and
// enlarges r by c until k verified points lie within c·r, βn+k points
// were verified, or every point was. It is parameterised by the
// projected range query alone, which is what makes PM-LSH and R-LSH
// "the identical Algorithm 2" over two trees: same projection, same
// radii, hence the same candidate sets, and whatever separates the two
// is the tree: R-LSH's R-tree indexes the projected points as the
// PM-tree stores them (pmtree.Tree.Points). The serving engine (core.Index.Search) answers the same
// way from an enumerator that scans where the tree cannot prune; this loop is the evaluation's, not the service's.
type algorithm2 struct {
	name   string
	c      float64
	points [][]float64
	proj   *lsh.Projection
	t      float64 // √χ²_{α1}(m), the projected radius multiplier
	dist   *costmodel.Distribution
	// rangeQuery visits the ids within projected distance r of qp in
	// (distance, id) order until visit returns false.
	rangeQuery func(qp []float64, r float64, visit func(id int32) bool) error
}

// BuildTreeAblation builds Algorithm 2 over one projected-space tree:
// pmtree.RangeSearch (tree-only, the paper's counted range query) for
// PMLSH, rtree.RangeSearch for RLSH. Both sides of the tree-choice
// ablation and the R-LSH rows of every table come from here.
func BuildTreeAblation(name AlgoName, data [][]float64, cfg BuildConfig) (Algorithm, error) {
	cfg.fill()
	if len(data) < 2 {
		return nil, fmt.Errorf("bench: %s needs at least 2 points, got %d", name, len(data))
	}
	proj, err := lsh.NewProjection(paperM, len(data[0]), cfg.Seed)
	if err != nil {
		return nil, err
	}
	t2, err := stats.ChiSquared{K: paperM}.UpperQuantile(core.DefaultAlpha1)
	if err != nil {
		return nil, err
	}
	dist, err := costmodel.SampleDistanceDistribution(data, 0, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	a := &algorithm2{
		name: string(name), c: cfg.C, points: data, proj: proj,
		t: math.Sqrt(t2), dist: dist,
	}
	pm, err := pmtree.Build(proj.ProjectAll(data), nil, pmtree.Config{NumPivots: core.DefaultPivots, PivotSeed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	switch name {
	case PMLSH:
		tree := pm
		a.rangeQuery = func(qp []float64, r float64, visit func(int32) bool) error {
			res, err := tree.RangeSearch(qp, r)
			for i := 0; i < len(res) && visit(res[i].ID); i++ {
			}
			return err
		}
	case RLSH:
		stored := make([][]float64, len(data))
		pm.Points(func(id int32, p []float64) { stored[id] = slices.Clone(p) })
		tree, err := rtree.Build(stored, nil, rtree.Config{})
		if err != nil {
			return nil, err
		}
		a.rangeQuery = func(qp []float64, r float64, visit func(int32) bool) error {
			res, err := tree.RangeSearch(qp, r)
			for i := 0; i < len(res) && visit(res[i].ID); i++ {
			}
			return err
		}
	default:
		return nil, fmt.Errorf("bench: no tree ablation for %q", name)
	}
	return a, nil
}

func (a *algorithm2) Name() string { return a.name }

// SetC changes the query-time approximation ratio (tradeoff curves).
func (a *algorithm2) SetC(c float64) { a.c = c }

func (a *algorithm2) KNN(q []float64, k int) ([]metrics.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bench: k must be positive, got %d", k)
	}
	n, c := len(a.points), a.c
	k = min(k, n)
	// Eq. 10 and Lemma 5: β = 2·α2 at the paper's m, by core's rule.
	beta := core.CandidateFraction(paperM, c)
	needed := int(math.Ceil(beta*float64(n))) + k
	r := a.dist.Quantile(float64(needed)/float64(n)) * core.DefaultRMinShrink
	if r <= 0 {
		// Duplicate-dominated sample: start from its largest distance,
		// or anywhere positive when even that is zero (r only has to grow).
		if r = a.dist.Quantile(1); r <= 0 {
			r = 1
		}
	}

	qp := a.proj.Project(q)
	seen := make([]bool, n)
	verified := 0
	top := make([]metrics.Neighbor, 0, k) // Dist holds squared distances
	bound := math.Inf(1)
	for {
		err := a.rangeQuery(qp, a.t*r, func(id int32) bool {
			if seen[id] {
				return true
			}
			seen[id] = true
			verified++
			if d2 := vec.SquaredL2Bounded(q, a.points[id], bound); len(top) < k || d2 < bound {
				top = vec.InsertBounded(top, metrics.Neighbor{ID: id, Dist: d2}, k,
					func(x metrics.Neighbor) float64 { return x.Dist })
				if len(top) == k {
					bound = top[k-1].Dist
				}
			}
			return verified < needed
		})
		if err != nil {
			return nil, err
		}
		if cr := c * r; verified >= needed || verified >= n ||
			(len(top) == k && top[k-1].Dist <= cr*cr) {
			break
		}
		r *= c
	}
	for i := range top {
		top[i].Dist = math.Sqrt(top[i].Dist)
	}
	return top, nil
}
