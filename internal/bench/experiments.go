package bench

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/metrics"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/estimator"
)

// Workload bundles a dataset with queries and exact ground truth.
type Workload struct {
	Dataset *dataset.Dataset
	Queries [][]float64
	// Truth holds exact neighbors per query, at least MaxK deep.
	Truth [][]metrics.Neighbor
	MaxK  int
}

// NewWorkload generates queries and ground truth for a dataset.
func NewWorkload(ds *dataset.Dataset, numQueries, maxK int, seed int64) (*Workload, error) {
	if numQueries < 1 || maxK < 1 {
		return nil, fmt.Errorf("bench: need positive numQueries and maxK")
	}
	qs := ds.Queries(numQueries, seed)
	truth, err := dataset.GroundTruth(ds.Points, qs, maxK)
	if err != nil {
		return nil, err
	}
	return &Workload{Dataset: ds, Queries: qs, Truth: truth, MaxK: maxK}, nil
}

// truthAt returns the first k exact neighbors of query qi.
func (w *Workload) truthAt(qi, k int) []metrics.Neighbor {
	return w.Truth[qi][:min(k, len(w.Truth[qi]))]
}

// Row is one measurement: an algorithm evaluated at one setting.
type Row struct {
	Algo    string
	K       int
	C       float64
	TimeMS  float64 // mean per-query latency
	Ratio   float64 // mean overall ratio (Eq. 11)
	Recall  float64 // mean recall (Eq. 12)
	Queries int
}

// Evaluate runs every query of the workload through the algorithm at
// the given k and aggregates the paper's three metrics.
func Evaluate(a Algorithm, w *Workload, k int) (Row, error) {
	if k > w.MaxK {
		return Row{}, fmt.Errorf("bench: k=%d exceeds workload truth depth %d", k, w.MaxK)
	}
	row := Row{Algo: a.Name(), K: k, Queries: len(w.Queries)}
	var elapsed time.Duration
	var ratioSum, recallSum float64
	for qi, q := range w.Queries {
		start := time.Now()
		res, err := a.KNN(q, k)
		elapsed += time.Since(start)
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s query %d: %w", a.Name(), qi, err)
		}
		truth := w.truthAt(qi, k)
		ratio, err := metrics.OverallRatio(res, truth)
		if err != nil {
			return Row{}, err
		}
		recall, err := metrics.Recall(res, truth)
		if err != nil {
			return Row{}, err
		}
		ratioSum += ratio
		recallSum += recall
	}
	n := float64(len(w.Queries))
	row.TimeMS = float64(elapsed.Nanoseconds()) / 1e6 / n
	row.Ratio = ratioSum / n
	row.Recall = recallSum / n
	return row, nil
}

// Overview is Table 4 for one dataset: all algorithms at fixed k and c.
func Overview(w *Workload, names []AlgoName, k int, cfg BuildConfig) ([]Row, error) {
	algos, err := BuildAll(names, w.Dataset.Points, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Row, 0, len(algos))
	for _, a := range algos {
		row, err := Evaluate(a, w, k)
		if err != nil {
			return nil, err
		}
		row.C = cfg.C
		out = append(out, row)
	}
	return out, nil
}

// VaryK is Figs. 7–9: every algorithm evaluated across k values.
// Indexes are built once and reused across k (as in the paper).
func VaryK(w *Workload, names []AlgoName, ks []int, cfg BuildConfig) ([]Row, error) {
	algos, err := BuildAll(names, w.Dataset.Points, cfg)
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, a := range algos {
		for _, k := range ks {
			row, err := Evaluate(a, w, k)
			if err != nil {
				return nil, err
			}
			row.C = cfg.C
			out = append(out, row)
		}
	}
	return out, nil
}

// Tradeoff is Figs. 10–11: recall–time and ratio–time curves obtained
// by sweeping each algorithm's quality knob — the approximation ratio c
// for PM-LSH, R-LSH and QALSH, the probe budget for Multi-Probe, and
// the accessed fraction for SRS (its T) and LScan. The knob's value is
// reported in each row's C column.
func Tradeoff(w *Workload, k int, cs []float64, probes []int, fractions []float64, cfg BuildConfig) ([]Row, error) {
	var out []Row
	eval := func(a Algorithm, knob float64) error {
		row, err := Evaluate(a, w, k)
		if err != nil {
			return err
		}
		row.C = knob
		out = append(out, row)
		return nil
	}

	// PM-LSH and R-LSH: c is a query-time parameter; build once.
	for _, name := range []AlgoName{PMLSH, RLSH} {
		a, err := BuildAlgo(name, w.Dataset.Points, cfg)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			a.(interface{ SetC(float64) }).SetC(c)
			if err := eval(a, c); err != nil {
				return nil, err
			}
		}
	}
	// Every other knob is fixed at build: one index per value.
	probeKnobs := make([]float64, len(probes))
	for i, p := range probes {
		probeKnobs[i] = float64(p)
	}
	setFraction := func(b *BuildConfig, f float64) { b.Fraction = f }
	for _, sweep := range []struct {
		name  AlgoName
		knobs []float64
		set   func(*BuildConfig, float64)
	}{
		{SRS, fractions, setFraction},
		{QALSH, cs, func(b *BuildConfig, c float64) { b.C = c }},
		{MultiProbe, probeKnobs, func(b *BuildConfig, p float64) { b.MultiProbeProbes = int(p) }},
		{LScan, fractions, setFraction},
	} {
		for _, v := range sweep.knobs {
			bcfg := cfg
			sweep.set(&bcfg, v)
			a, err := BuildAlgo(sweep.name, w.Dataset.Points, bcfg)
			if err != nil {
				return nil, err
			}
			if err := eval(a, v); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// SweepPoint is one Fig. 6 sample.
type SweepPoint struct {
	Param  string // "s" or "m"
	Value  int
	TimeMS float64
	Ratio  float64
	Recall float64
}

// ParamSweep is Fig. 6: PM-LSH query time, recall and overall ratio as
// the pivot count s and the hash count m vary.
func ParamSweep(w *Workload, k int, svals, mvals []int, cfg BuildConfig) ([]SweepPoint, error) {
	cfg.fill()
	var out []SweepPoint
	eval := func(ccfg core.Config, param string, value int) error {
		ix, err := core.Build(w.Dataset.Points, ccfg)
		if err != nil {
			return err
		}
		a := &pmlshAdapter{ix: ix, c: cfg.C}
		row, err := Evaluate(a, w, k)
		if err != nil {
			return err
		}
		out = append(out, SweepPoint{Param: param, Value: value,
			TimeMS: row.TimeMS, Ratio: row.Ratio, Recall: row.Recall})
		return nil
	}
	for _, s := range svals {
		ccfg := core.Config{Seed: cfg.Seed, M: paperM, NumPivots: s, ExplicitZeroPivots: s == 0}
		if err := eval(ccfg, "s", s); err != nil {
			return nil, err
		}
	}
	for _, m := range mvals {
		ccfg := core.Config{Seed: cfg.Seed, M: m}
		if err := eval(ccfg, "m", m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CostModel is Table 2 for one dataset: projected-space tree costs.
func CostModel(ds *dataset.Dataset, m int, measureQueries int, seed int64) (costmodel.Comparison, error) {
	if m == 0 {
		m = paperM
	}
	proj, err := lsh.NewProjection(m, ds.Spec.D, seed)
	if err != nil {
		return costmodel.Comparison{}, err
	}
	projected := proj.ProjectAll(ds.Points)
	return costmodel.Compare(ds.Spec.Name, projected, 5, 16, 0, measureQueries, seed)
}

// DatasetStats is Table 3 for one dataset.
func DatasetStats(ds *dataset.Dataset, seed int64) (dataset.Stats, error) {
	return dataset.ComputeStats(ds.Points, dataset.StatsConfig{Seed: seed})
}

// EstimatorStudy is Fig. 3: the four estimators on a Trevi-like sample.
func EstimatorStudy(ds *dataset.Dataset, numQueries int, ts []int, k int, seed int64) (estimator.Curves, error) {
	qs := ds.Queries(numQueries, seed)
	return estimator.Run(ds.Points, qs, ts, estimator.Config{K: k, Seed: seed})
}
