// Package metrics implements the paper's evaluation metrics
// (Section 6.1): the overall ratio (Eq. 11) and recall (Eq. 12) of a
// (c,k)-ANN result against the exact kNN, and the answer shapes they
// are computed over.
package metrics

import (
	"cmp"
	"fmt"
	"math"
)

// Neighbor pairs a point id with its distance to the query: the one
// answer shape of every index, baseline and ground truth in the repo,
// and the object /v1/search answers with (its tags are the wire names).
type Neighbor struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// Pair is one closest pair: two point ids (I < J) and their distance.
// It is the answer shape of the approximate closest-pair engine and of
// its exhaustive ground truth, and the object /v1/pairs answers with.
type Pair struct {
	I    int32   `json:"i"`
	J    int32   `json:"j"`
	Dist float64 `json:"dist"`
}

// CompareNeighbors orders neighbors by (distance, id): the order of
// every answer in the repo, and the one rule for two neighbors at
// exactly the same distance — the smaller id comes first.
func CompareNeighbors(a, b Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// NeighborDist is a Neighbor's distance: the key vec.InsertBounded
// orders a top-k of neighbors by.
func NeighborDist(n Neighbor) float64 { return n.Dist }

// OverallRatio computes Eq. 11: (1/k)·Σ ||q,o_i|| / ||q,o*_i||, the
// mean of per-rank distance ratios between the returned sequence and
// the exact kNN. Results shorter than the truth are padded with the
// worst returned distance (an algorithm that returns too few points
// must not look better for it); an empty result yields +Inf.
//
// Ranks whose exact distance is zero (query coincides with data) are
// counted as ratio 1 when the returned distance is also zero and
// skipped otherwise, following the usual convention.
func OverallRatio(result, truth []Neighbor) (float64, error) {
	if len(truth) == 0 {
		return 0, fmt.Errorf("metrics: empty ground truth")
	}
	if len(result) == 0 {
		return math.Inf(1), nil
	}
	k := len(truth)
	var sum float64
	used := 0
	worst := result[len(result)-1].Dist
	for i := 0; i < k; i++ {
		got := worst
		if i < len(result) {
			got = result[i].Dist
		}
		exact := truth[i].Dist
		if exact == 0 {
			if got == 0 {
				sum++
				used++
			}
			continue
		}
		sum += got / exact
		used++
	}
	if used == 0 {
		return 1, nil
	}
	return sum / float64(used), nil
}

// Recall computes Eq. 12: |R ∩ R*| / |R*|. Membership is by id; when
// the exact k-th distance is tied across several points, any returned
// point at distance ≤ the truth's k-th distance also counts as a hit
// (ties make id sets ambiguous).
func Recall(result, truth []Neighbor) (float64, error) {
	if len(truth) == 0 {
		return 0, fmt.Errorf("metrics: empty ground truth")
	}
	ids := make(map[int32]bool, len(truth))
	for _, n := range truth {
		ids[n.ID] = true
	}
	kth := truth[len(truth)-1].Dist
	hits := 0
	for _, n := range result {
		if ids[n.ID] || n.Dist <= kth {
			hits++
		}
	}
	if hits > len(truth) {
		hits = len(truth)
	}
	return float64(hits) / float64(len(truth)), nil
}
