package pmlsh

// Edge-case sweep of the public query surface: degenerate k values,
// empty batches, duplicate points, exact-match queries, and
// dimension-mismatch errors across every query entry point.

import (
	"context"
	"math"
	"testing"
)

func edgeIndex(t *testing.T, n int) (*Index, [][]float64) {
	t.Helper()
	ds := testData(t, n)
	ix, err := Build(ds.Points, Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds.Points
}

func TestEdgeKExceedsN(t *testing.T) {
	ix, pts := edgeIndex(t, 7)
	res, err := ix.Search(context.Background(), pts[0], 50, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Errorf("k > n: got %d results, want all 7", len(res))
	}
	// Closest pairs clamp k to n(n-1)/2.
	pairs, err := ix.SearchPairs(context.Background(), 1000, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 21 {
		t.Errorf("k > maxPairs: got %d pairs, want 21", len(pairs))
	}
}

func TestEdgeKZeroOrNegative(t *testing.T) {
	ix, pts := edgeIndex(t, 50)
	if _, err := ix.Search(context.Background(), pts[0], 0, WithRatio(1.5)); err == nil {
		t.Error("KNN k=0 should fail")
	}
	if _, err := ix.Search(context.Background(), pts[0], -1, WithRatio(1.5)); err == nil {
		t.Error("KNN k<0 should fail")
	}
	if _, err := ix.Search(context.Background(), pts[0], 0, WithRatio(1.5), WithStats(new(QueryStats))); err == nil {
		t.Error("Search with stats, k=0 should fail")
	}
	if _, err := ix.SearchPairs(context.Background(), 0, WithRatio(1.5)); err == nil {
		t.Error("ClosestPairs k=0 should fail")
	}
	if _, err := ix.SearchPairs(context.Background(), -2, WithRatio(1.5)); err == nil {
		t.Error("ClosestPairs k<0 should fail")
	}
}

func TestEdgeEmptyBatch(t *testing.T) {
	ix, pts := edgeIndex(t, 50)
	out, err := ix.SearchBatch(context.Background(), nil, 3, WithRatio(1.5))
	if err != nil || out != nil {
		t.Errorf("nil batch: out=%v err=%v", out, err)
	}
	out, err = ix.SearchBatch(context.Background(), [][]float64{}, 3, WithRatio(1.5))
	if err != nil || out != nil {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
	// A batch error carries the failing query's index.
	bad := [][]float64{pts[0], {1, 2}}
	if _, err := ix.SearchBatch(context.Background(), bad, 3, WithRatio(1.5)); err == nil {
		t.Error("batch with a mismatched query should fail")
	}
}

func TestEdgeDuplicatePoints(t *testing.T) {
	base := testData(t, 120).Points
	data := append([][]float64{}, base...)
	data = append(data, base[3], base[3], base[7]) // exact duplicates
	ix, err := Build(data, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A query on the duplicated point sees zero-distance results.
	res, err := ix.Search(context.Background(), base[3], 3, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Dist != 0 || res[1].Dist != 0 || res[2].Dist != 0 {
		t.Errorf("duplicate query results: %+v", res)
	}
	// The closest pairs are the zero-distance duplicate pairs.
	pairs, err := ix.SearchPairs(context.Background(), 4, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, p := range pairs {
		if p.Dist == 0 {
			zero++
		}
	}
	if zero < 4 { // {3,120},{3,121},{120,121},{7,122}
		t.Errorf("want 4 zero-distance pairs, got %d: %+v", zero, pairs)
	}
}

func TestEdgeQueryEqualsIndexedPoint(t *testing.T) {
	ix, pts := edgeIndex(t, 200)
	var st QueryStats
	res, err := ix.Search(context.Background(), pts[42], 1, WithRatio(1.5), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 42 || res[0].Dist != 0 {
		t.Errorf("self query: %+v (stats %+v)", res, st)
	}
	hit, err := ix.SearchBall(context.Background(), pts[42], 0.5, WithRatio(2.0))
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.Dist != 0 {
		t.Errorf("self BallCover: %+v", hit)
	}
}

func TestEdgeDimensionMismatch(t *testing.T) {
	ix, _ := edgeIndex(t, 50)
	short := []float64{1, 2, 3}
	if _, err := ix.Search(context.Background(), short, 3, WithRatio(1.5)); err == nil {
		t.Error("KNN dim mismatch should fail")
	}
	if _, err := ix.SearchBall(context.Background(), short, 1, WithRatio(2.0)); err == nil {
		t.Error("BallCover dim mismatch should fail")
	}
	if _, err := ix.Insert(short); err == nil {
		t.Error("Insert dim mismatch should fail")
	}
	if _, err := ix.SearchBatch(context.Background(), [][]float64{short}, 3, WithRatio(1.5)); err == nil {
		t.Error("KNNBatch dim mismatch should fail")
	}
}

func TestEdgeBallCoverErrors(t *testing.T) {
	ix, pts := edgeIndex(t, 50)
	// A radius is request data: anything but a positive finite number is
	// an error — never "no point within c·r", which is what a NaN used to
	// be answered with — under both vector metrics that define a ball,
	// on one shard and fanned over two.
	for _, m := range []Metric{MetricL2, MetricCosine} {
		for _, shards := range []int{1, 2} {
			sx, err := Build(pts, Config{Seed: 21, Metric: m, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
				if hit, err := sx.SearchBall(context.Background(), pts[0], r); err == nil {
					t.Errorf("%v, %d shards: radius %v answered %v, want an error", m, shards, r, hit)
				}
			}
			if hit, err := sx.SearchBall(context.Background(), pts[0], 0.5); err != nil || hit == nil {
				t.Errorf("%v, %d shards: radius 0.5 around an indexed point answered %v, %v", m, shards, hit, err)
			}
		}
	}
	if _, err := ix.SearchBall(context.Background(), pts[0], 1, WithRatio(0.9)); err == nil {
		t.Error("c <= 1 should fail")
	}
}

func TestEdgeClosestPairsSurface(t *testing.T) {
	ds := testData(t, 80)

	// Single-point index has no pairs.
	one, err := Build(ds.Points[:1], Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := one.SearchPairs(context.Background(), 5, WithRatio(1.5))
	if err != nil || len(pairs) != 0 {
		t.Errorf("single point: pairs=%v err=%v", pairs, err)
	}

	// c <= 1 is rejected; c <= 0 selects the default.
	ix, _ := Build(ds.Points, Config{Seed: 1})
	if _, err := ix.SearchPairs(context.Background(), 3, WithRatio(1.01)); err != nil {
		t.Errorf("c=1.01 should work: %v", err)
	}
	if _, err := ix.SearchPairs(context.Background(), 3, WithRatio(0.5)); err == nil {
		t.Error("0 < c <= 1 should fail")
	}
	if res, err := ix.SearchPairs(context.Background(), 3, WithRatio(0)); err != nil || len(res) != 3 {
		t.Errorf("c=0 (default): res=%v err=%v", res, err)
	}
}
