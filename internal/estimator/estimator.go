// Package estimator implements the distance-estimator comparison of
// Fig. 3: given m-dimensional projections, four estimators rank the
// dataset by estimated distance to a query; taking the top-T estimated
// points and extracting their exact 100-NN shows how much candidate
// quality each estimator delivers per probe budget.
//
//   - L2 — the paper's estimator (Lemma 2): the projected Euclidean
//     distance r′ (equivalently r′/√m, identical ranking for fixed m);
//   - L1 — the projected Manhattan distance;
//   - QD — quantization distance in the style of GQR: per projection,
//     the gap between the query's raw value and the nearest edge of the
//     candidate's bucket (0 when they share a bucket);
//   - Rand — a random score, the no-information floor.
package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// Kind identifies one estimator.
type Kind string

// The four estimators of Fig. 3.
const (
	L2   Kind = "L2"
	L1   Kind = "L1"
	QD   Kind = "QD"
	Rand Kind = "Rand"
)

// Kinds lists the estimators in the figure's legend order.
func Kinds() []Kind { return []Kind{L2, L1, QD, Rand} }

// Config controls the experiment.
type Config struct {
	// M is the number of hash functions (0 = 15, as in the figure).
	M int
	// K is the number of true neighbors compared (0 = 100).
	K int
	// BucketWidth is the quantization width used by QD; 0 auto-tunes to
	// the 5th percentile of projected coordinate spreads.
	BucketWidth float64
	// Seed drives the projection and the random estimator.
	Seed int64
}

// Point is one curve sample: the probe budget T and the quality of the
// k best (by exact distance) among the top-T estimated candidates.
type Point struct {
	T      int
	Recall float64
	Ratio  float64
}

// Curves maps each estimator to its Fig. 3 curve.
type Curves map[Kind][]Point

// Run executes the experiment: for every query, rank data by each
// estimator, cut at each T, verify exact distances of the top-T, keep
// the best k, and score recall (Fig. 3a) and overall ratio (Fig. 3b)
// against the exact kNN.
func Run(data [][]float64, queries [][]float64, ts []int, cfg Config) (Curves, error) {
	if len(data) == 0 || len(queries) == 0 {
		return nil, fmt.Errorf("estimator: need data and queries")
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("estimator: need at least one T")
	}
	if cfg.M == 0 {
		cfg.M = 15
	}
	if cfg.K == 0 {
		cfg.K = 100
	}
	for _, t := range ts {
		if t < cfg.K {
			return nil, fmt.Errorf("estimator: T=%d below K=%d", t, cfg.K)
		}
		if t > len(data) {
			return nil, fmt.Errorf("estimator: T=%d exceeds dataset size %d", t, len(data))
		}
	}

	proj, err := lsh.NewProjection(cfg.M, len(data[0]), cfg.Seed)
	if err != nil {
		return nil, err
	}
	projData := proj.ProjectAll(data)
	if cfg.BucketWidth == 0 {
		cfg.BucketWidth = autoBucketWidth(projData)
	}

	truth, err := dataset.GroundTruth(data, queries, cfg.K)
	if err != nil {
		return nil, err
	}

	maxT := 0
	for _, t := range ts {
		if t > maxT {
			maxT = t
		}
	}

	curves := make(Curves, 4)
	sums := make(map[Kind][]Point)
	for _, kind := range Kinds() {
		pts := make([]Point, len(ts))
		for i, t := range ts {
			pts[i] = Point{T: t}
		}
		sums[kind] = pts
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	scores := make([]scored, len(data))
	for qi, q := range queries {
		pq := proj.Project(q)
		exact := truth[qi]
		truthN := make([]metrics.Neighbor, len(exact))
		for i, e := range exact {
			truthN[i] = metrics.Neighbor{ID: e.ID, Dist: e.Dist}
		}
		for _, kind := range Kinds() {
			scoreAll(kind, projData, pq, cfg.BucketWidth, rng, scores)
			// Partial selection: only the top maxT matter.
			sort.Slice(scores, func(i, j int) bool { return scores[i].score < scores[j].score })
			// Exact distances of the top-maxT, in score order.
			verified := make([]metrics.Neighbor, maxT)
			for i := 0; i < maxT; i++ {
				id := scores[i].id
				verified[i] = metrics.Neighbor{ID: id, Dist: vec.L2(q, data[id])}
			}
			for ti, t := range ts {
				top := bestK(verified[:t], cfg.K)
				rec, err := metrics.Recall(top, truthN)
				if err != nil {
					return nil, err
				}
				rat, err := metrics.OverallRatio(top, truthN)
				if err != nil {
					return nil, err
				}
				sums[kind][ti].Recall += rec
				sums[kind][ti].Ratio += rat
			}
		}
	}
	nq := float64(len(queries))
	for _, kind := range Kinds() {
		pts := sums[kind]
		for i := range pts {
			pts[i].Recall /= nq
			pts[i].Ratio /= nq
		}
		curves[kind] = pts
	}
	return curves, nil
}

type scored struct {
	id    int32
	score float64
}

// scoreAll fills scores[i] with the estimator's value for point i.
func scoreAll(kind Kind, projData [][]float64, pq []float64, w float64, rng *rand.Rand, scores []scored) {
	switch kind {
	case L2:
		for i, p := range projData {
			scores[i] = scored{int32(i), vec.SquaredL2(pq, p)}
		}
	case L1:
		for i, p := range projData {
			scores[i] = scored{int32(i), vec.L1(pq, p)}
		}
	case QD:
		for i, p := range projData {
			scores[i] = scored{int32(i), quantizationDistance(pq, p, w)}
		}
	case Rand:
		for i := range projData {
			scores[i] = scored{int32(i), rng.Float64()}
		}
	default:
		panic("estimator: unknown kind " + string(kind))
	}
}

// quantizationDistance sums, over projections, the squared gap between
// the query's raw value and the nearest edge of the candidate's bucket
// of width w (0 when both fall in the same bucket).
func quantizationDistance(pq, p []float64, w float64) float64 {
	var s float64
	for i := range pq {
		bq := math.Floor(pq[i] / w)
		bp := math.Floor(p[i] / w)
		if bq == bp {
			continue
		}
		var gap float64
		if bp > bq {
			gap = bp*w - pq[i] // distance up to the lower edge of p's bucket
		} else {
			gap = pq[i] - (bp+1)*w // distance down to the upper edge
		}
		s += gap * gap
	}
	return s
}

// autoBucketWidth picks a width at the scale of typical projected
// coordinate gaps: 1/4 of the mean per-dimension standard deviation.
func autoBucketWidth(projData [][]float64) float64 {
	if len(projData) == 0 {
		return 1
	}
	m := len(projData[0])
	var total float64
	for i := 0; i < m; i++ {
		var sum, sq float64
		for _, p := range projData {
			sum += p[i]
			sq += p[i] * p[i]
		}
		n := float64(len(projData))
		mean := sum / n
		total += math.Sqrt(math.Max(sq/n-mean*mean, 0))
	}
	w := total / float64(m) / 4
	if w <= 0 {
		return 1
	}
	return w
}

// bestK verifies candidates and keeps the k nearest by exact distance,
// sorted ascending.
func bestK(cands []metrics.Neighbor, k int) []metrics.Neighbor {
	out := append([]metrics.Neighbor(nil), cands...)
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	if len(out) > k {
		out = out[:k]
	}
	return out
}
