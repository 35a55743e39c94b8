package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/vec"
)

// Closest-pair experiment support: a dedup-shaped workload (a corpus
// with planted near-copies), exact ground truth, the CP engine
// measurements, and the naive per-point probing loop the CP subsystem
// replaces (one BallCover probe per corpus point — the pattern
// examples/dedup used before the self-join existed).

// CPWorkload is a corpus with planted near-duplicate pairs.
type CPWorkload struct {
	Points [][]float64
	// Planted maps each planted pair (orig < copy) to true.
	Planted map[[2]int32]bool
	// DupRadius is the perturbation scale: every planted copy lies
	// within DupRadius of its original.
	DupRadius float64
}

// NewCPWorkload plants numDups near-copies of random corpus points,
// each perturbed by at most a quarter of the corpus's typical
// nearest-neighbor distance (measured exactly on a sample), and returns
// the union. The planted copies are appended after the originals.
func NewCPWorkload(ds *dataset.Dataset, numDups int, seed int64) (*CPWorkload, error) {
	if numDups < 1 {
		return nil, fmt.Errorf("bench: need at least one planted duplicate")
	}
	base := ds.Points
	if len(base) < 2 {
		return nil, fmt.Errorf("bench: corpus too small")
	}
	rng := rand.New(rand.NewSource(seed))

	// Exact NN-distance scale from a sample of corpus points.
	const probes = 30
	var nnSum float64
	for i := 0; i < probes; i++ {
		q := base[rng.Intn(len(base))]
		best := -1.0
		for _, p := range base {
			if &p[0] == &q[0] {
				continue
			}
			d := vec.L2(q, p)
			if best < 0 || d < best {
				best = d
			}
		}
		nnSum += best
	}
	dupRadius := 0.25 * nnSum / probes

	pts := make([][]float64, len(base), len(base)+numDups)
	copy(pts, base)
	planted := make(map[[2]int32]bool, numDups)
	perDim := dupRadius / 2 / math.Sqrt(float64(len(base[0])))
	for i := 0; i < numDups; i++ {
		src := rng.Intn(len(base))
		dup := make([]float64, len(base[src]))
		for j := range dup {
			dup[j] = base[src][j] + rng.NormFloat64()*perDim
		}
		planted[[2]int32{int32(src), int32(len(pts))}] = true
		pts = append(pts, dup)
	}
	return &CPWorkload{Points: pts, Planted: planted, DupRadius: dupRadius}, nil
}

// CPRow is one closest-pair measurement.
type CPRow struct {
	Algo   string
	K      int
	C      float64
	TimeMS float64
	// Ratio is the mean per-rank distance ratio against the exact k
	// closest pairs (1.0 = exact; ranks with exact distance 0 count 1
	// when matched exactly and are skipped otherwise).
	Ratio float64
}

// ClosestPairStudy builds a PM-LSH index over the workload and measures
// the closest-pair query against exact brute force.
func ClosestPairStudy(w *CPWorkload, k int, c float64, seed int64) (CPRow, error) {
	ix, err := core.Build(w.Points, core.Config{Seed: seed, M: paperM})
	if err != nil {
		return CPRow{}, err
	}
	exact, err := lscan.ClosestPairs(w.Points, k)
	if err != nil {
		return CPRow{}, err
	}
	start := time.Now()
	pairs, err := ix.SearchPairs(context.Background(), k, core.SearchOptions{C: c})
	if err != nil {
		return CPRow{}, err
	}
	elapsed := time.Since(start)
	return CPRow{
		Algo:   "ClosestPairs",
		K:      k,
		C:      c,
		TimeMS: float64(elapsed.Nanoseconds()) / 1e6,
		Ratio:  cpRatio(pairs, exact),
	}, nil
}

// cpRatio is the overall-ratio analog for pair results. A rank whose
// exact distance is zero (a duplicate pair) but whose returned
// distance is not counts as an unbounded violation — duplicates are
// the CP engine's primary workload, so missing one must fail the
// ratio gate, not be skipped.
func cpRatio(got, exact []core.Pair) float64 {
	if len(got) == 0 || len(exact) == 0 {
		return 0
	}
	var sum float64
	used := 0
	for i := range exact {
		if i >= len(got) {
			break
		}
		if exact[i].Dist == 0 {
			if got[i].Dist != 0 {
				return math.Inf(1)
			}
			sum++
			used++
			continue
		}
		sum += got[i].Dist / exact[i].Dist
		used++
	}
	if used == 0 {
		return 1
	}
	return sum / float64(used)
}

// NaiveDedupBallCover is the pre-subsystem dedup pattern: one
// (r,c)-BallCover probe per corpus point against the index. It is the
// cost baseline the self-join engine is benchmarked against (n
// independent probes re-project and re-traverse the tree once per
// point). It returns the number of probes that reported a hit.
func NaiveDedupBallCover(ix *core.Index, pts [][]float64, r, c float64) (int, error) {
	hits := 0
	for _, p := range pts {
		h, err := ix.SearchBall(context.Background(), p, r, core.SearchOptions{C: c})
		if err != nil {
			return hits, err
		}
		if h != nil {
			hits++
		}
	}
	return hits, nil
}
