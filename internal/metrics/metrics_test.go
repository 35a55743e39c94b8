package metrics

import (
	"math"
	"testing"
)

func nb(id int32, d float64) Neighbor { return Neighbor{ID: id, Dist: d} }

func TestOverallRatioExactMatch(t *testing.T) {
	truth := []Neighbor{nb(1, 1), nb(2, 2), nb(3, 3)}
	got, err := OverallRatio(truth, truth)
	if err != nil || got != 1 {
		t.Errorf("ratio = %v, %v", got, err)
	}
}

func TestOverallRatioWorse(t *testing.T) {
	truth := []Neighbor{nb(1, 1), nb(2, 2)}
	res := []Neighbor{nb(5, 2), nb(6, 4)}
	got, _ := OverallRatio(res, truth)
	if got != 2 {
		t.Errorf("ratio = %v, want 2", got)
	}
}

func TestOverallRatioShortResultPadded(t *testing.T) {
	truth := []Neighbor{nb(1, 1), nb(2, 2), nb(3, 4)}
	res := []Neighbor{nb(1, 1)}
	got, _ := OverallRatio(res, truth)
	// ranks: 1/1, 1/2 (padded with worst=1), 1/4 → (1 + 0.5 + 0.25)/3
	want := (1 + 0.5 + 0.25) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ratio = %v, want %v", got, want)
	}
}

func TestOverallRatioEmptyResult(t *testing.T) {
	truth := []Neighbor{nb(1, 1)}
	got, _ := OverallRatio(nil, truth)
	if !math.IsInf(got, 1) {
		t.Errorf("empty result should be +Inf, got %v", got)
	}
}

func TestOverallRatioEmptyTruth(t *testing.T) {
	if _, err := OverallRatio(nil, nil); err == nil {
		t.Error("empty truth should error")
	}
}

func TestOverallRatioZeroDistances(t *testing.T) {
	truth := []Neighbor{nb(1, 0), nb(2, 2)}
	res := []Neighbor{nb(1, 0), nb(2, 2)}
	got, _ := OverallRatio(res, truth)
	if got != 1 {
		t.Errorf("ratio with zero exact distance = %v", got)
	}
	// Result misses the zero-distance point: rank 0 skipped, rank 1
	// contributes 3/2.
	res2 := []Neighbor{nb(9, 1), nb(2, 3)}
	got2, _ := OverallRatio(res2, truth)
	if math.Abs(got2-1.5) > 1e-12 {
		t.Errorf("ratio = %v, want 1.5", got2)
	}
}

func TestRecallBasic(t *testing.T) {
	truth := []Neighbor{nb(1, 1), nb(2, 2), nb(3, 3), nb(4, 4)}
	res := []Neighbor{nb(1, 1), nb(3, 3)}
	got, _ := Recall(res, truth)
	if got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	full, _ := Recall(truth, truth)
	if full != 1 {
		t.Errorf("self recall = %v", full)
	}
	none, _ := Recall([]Neighbor{nb(99, 50)}, truth)
	if none != 0 {
		t.Errorf("miss recall = %v", none)
	}
}

func TestRecallTies(t *testing.T) {
	// Exact 2-NN at distances 1, 2; the dataset has another point also
	// at distance 2. Returning the tied point must count as a hit.
	truth := []Neighbor{nb(1, 1), nb(2, 2)}
	res := []Neighbor{nb(1, 1), nb(7, 2)}
	got, _ := Recall(res, truth)
	if got != 1 {
		t.Errorf("tie-aware recall = %v, want 1", got)
	}
}

func TestRecallCapped(t *testing.T) {
	truth := []Neighbor{nb(1, 1), nb(2, 2)}
	// Degenerate: more "hits" than k must not exceed 1.
	res := []Neighbor{nb(1, 1), nb(2, 2), nb(3, 1.5)}
	got, _ := Recall(res, truth)
	if got != 1 {
		t.Errorf("recall = %v, want capped at 1", got)
	}
}

func TestRecallEmptyTruth(t *testing.T) {
	if _, err := Recall(nil, nil); err == nil {
		t.Error("empty truth should error")
	}
}
