// Package costmodel implements the node-based cost model of Section 4.2
// (after Ciaccia, Patella, Zezula, PODS 1998) used to compare the
// PM-tree and the R-tree in the projected space — the analysis behind
// the paper's Table 2.
//
// The model rests on the distance distribution F(x) = Pr[||o_i,o_j|| ≤ x]
// (Eq. 4) and, for the R-tree, the per-dimension data distributions
// G_i(x) (Eq. 8). The high homogeneity of viewpoints (HV ≥ 0.9 for
// every evaluation dataset, Table 3) is what justifies plugging the
// global F into per-node access probabilities.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/pmtree"
	"repro/internal/rtree"
)

// DefaultSelectivity is the fraction of points a modeled range query
// should return: "the value of r is chosen to return approximately the
// nearest 8% of all points".
const DefaultSelectivity = 0.08

// Distribution is an empirical CDF over float64 samples.
type Distribution struct {
	sorted []float64
}

// NewDistribution builds an empirical CDF from samples (copied).
func NewDistribution(samples []float64) (*Distribution, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("costmodel: empty sample")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &Distribution{sorted: s}, nil
}

// CDF returns Pr[X <= x].
func (d *Distribution) CDF(x float64) float64 {
	i := sort.SearchFloat64s(d.sorted, x)
	for i < len(d.sorted) && d.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(d.sorted))
}

// Quantile returns the smallest sample x with CDF(x) >= p.
func (d *Distribution) Quantile(p float64) float64 {
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 1 {
		return d.sorted[len(d.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(d.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return d.sorted[i]
}

// SampleDistanceDistribution estimates F(x) (Eq. 4) from random point
// pairs: the index's own sample, core.SampleDistances (samples ≤ 0 =
// its default).
func SampleDistanceDistribution(points [][]float64, samples int, seed int64) (*Distribution, error) {
	if n := len(points); n < 2 {
		return nil, fmt.Errorf("costmodel: need at least 2 points, got %d", n)
	}
	return &Distribution{sorted: core.SampleDistances(points, samples, seed)}, nil
}

// DimensionDistributions estimates G_i(x) (Eq. 8) for every dimension.
func DimensionDistributions(points [][]float64) ([]*Distribution, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("costmodel: empty dataset")
	}
	m := len(points[0])
	out := make([]*Distribution, m)
	col := make([]float64, len(points))
	for i := 0; i < m; i++ {
		for j, p := range points {
			col[j] = p[i]
		}
		d, err := NewDistribution(col)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// PMTreeCost evaluates Eqs. 5–7: the expected number of distance
// computations of range(q, rq) over a PM-tree, assuming the query
// follows the data's distance distribution F. Pivot hyper-ring terms
// use F as well (the homogeneity assumption).
func PMTreeCost(t *pmtree.Tree, f *Distribution, rq float64) float64 {
	var cc float64
	t.Walk(func(info pmtree.NodeInfo) {
		pr := 1.0
		if !math.IsInf(info.Radius, 1) {
			pr = f.CDF(info.Radius + rq)
		}
		for _, hr := range info.HR {
			if math.IsInf(hr.Min, 1) {
				continue // synthetic root ring
			}
			pr *= f.CDF(hr.Max+rq) - f.CDF(hr.Min-rq)
		}
		cc += float64(info.NumEntries) * pr
	})
	return cc
}

// RTreeCost evaluates the paper's Eq. 9 literally: the ball B(q, rq) is
// replaced by the isochoric hyper-cube with side
// l = (2π^{m/2} / (m·Γ(m/2)))^{1/m}·rq (equal volume), and each MBR is
// extended by l on both sides, giving access probability
// Π_i [G_i(u_i + l) − G_i(l_i − l)].
func RTreeCost(t *rtree.Tree, gs []*Distribution, rq float64) float64 {
	m, l := len(gs), isochoricSide(len(gs), rq)
	var cc float64
	t.Walk(func(info rtree.NodeInfo) {
		pr := 1.0
		for i := 0; i < m; i++ {
			pr *= gs[i].CDF(info.Rect.Hi[i]+l) - gs[i].CDF(info.Rect.Lo[i]-l)
		}
		cc += float64(info.NumEntries) * pr
	})
	return cc
}

// isochoricSide returns the side length of the m-cube with the same
// volume as the m-ball of radius r: V_ball = 2π^{m/2} r^m / (m Γ(m/2)).
func isochoricSide(m int, r float64) float64 {
	fm := float64(m)
	lg, _ := math.Lgamma(fm / 2)
	logV := math.Ln2 + (fm/2)*math.Log(math.Pi) + fm*math.Log(r) - math.Log(fm) - lg
	return math.Exp(logV / fm)
}

// Comparison is one Table 2 row.
type Comparison struct {
	Dataset     string
	PMTreeCC    float64
	RTreeCC     float64
	ReductionPc float64 // (R − PM) / R · 100
	Radius      float64 // the rq used (F-quantile at the selectivity)
	// Measured costs from executing real range queries (0 when not
	// requested): used to validate the model.
	MeasuredPM float64
	MeasuredR  float64
}

// Compare builds both trees over the projected points and evaluates
// both cost models at the radius whose selectivity matches selectivity
// (0 = DefaultSelectivity). When measureQueries > 0, it additionally
// runs that many real range queries (centred on random data points)
// against both trees and records the mean observed distance-computation
// counts.
func Compare(name string, projected [][]float64, numPivots int, capacity int,
	selectivity float64, measureQueries int, seed int64) (Comparison, error) {

	if selectivity == 0 {
		selectivity = DefaultSelectivity
	}
	if selectivity <= 0 || selectivity >= 1 {
		return Comparison{}, fmt.Errorf("costmodel: selectivity must be in (0,1), got %v", selectivity)
	}
	f, err := SampleDistanceDistribution(projected, 0, seed)
	if err != nil {
		return Comparison{}, err
	}
	rq := f.Quantile(selectivity)

	pm, err := pmtree.Build(projected, nil, pmtree.Config{NumPivots: numPivots, Capacity: capacity, PivotSeed: seed})
	if err != nil {
		return Comparison{}, err
	}
	rt, err := rtree.Build(projected, nil, rtree.Config{Capacity: capacity})
	if err != nil {
		return Comparison{}, err
	}
	gs, err := DimensionDistributions(projected)
	if err != nil {
		return Comparison{}, err
	}

	out := Comparison{
		Dataset:  name,
		PMTreeCC: PMTreeCost(pm, f, rq),
		RTreeCC:  RTreeCost(rt, gs, rq),
		Radius:   rq,
	}
	if out.RTreeCC > 0 {
		out.ReductionPc = (out.RTreeCC - out.PMTreeCC) / out.RTreeCC * 100
	}

	if measureQueries > 0 {
		rng := rand.New(rand.NewSource(seed + 7))
		rt.ResetStats()
		var pmCC int64
		for i := 0; i < measureQueries; i++ {
			q := projected[rng.Intn(len(projected))]
			cc, err := pmRangeCost(pm, q, rq)
			if err != nil {
				return Comparison{}, err
			}
			pmCC += cc
			if _, err := rt.RangeSearch(q, rq); err != nil {
				return Comparison{}, err
			}
		}
		out.MeasuredPM = float64(pmCC) / float64(measureQueries)
		out.MeasuredR = float64(rt.DistanceComputations()) / float64(measureQueries)
	}
	return out, nil
}

// pmRangeCost runs one range query over the PM-tree and returns the
// metric evaluations it paid: its enumeration's count, what Table 2
// reports as the measured computation cost.
func pmRangeCost(pm *pmtree.Tree, q []float64, r float64) (int64, error) {
	var e pmtree.RangeEnumerator
	if err := e.ResetTree(pm, q); err != nil {
		return 0, err
	}
	e.Expand(r, func(int32, float64) {})
	return e.DistComps(), nil
}
