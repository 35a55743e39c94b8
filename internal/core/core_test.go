package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/vec"
)

func randData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		out[i] = p
	}
	return out
}

func exactKNN(data [][]float64, q []float64, k int) []Result {
	out := make([]Result, 0, len(data))
	for i, p := range data {
		out = append(out, Result{ID: int32(i), Dist: vec.L2(q, p)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := Build([][]float64{{1, 2}, {1}}, Config{}); err == nil {
		t.Error("ragged dataset should fail")
	}
	if _, err := Build(randData(10, 4, 1), Config{NumPivots: -1}); err == nil {
		t.Error("negative pivots should fail")
	}
	if _, err := Build(randData(10, 4, 1), Config{Alpha1: 2}); err == nil {
		t.Error("alpha1 >= 1 should fail")
	}
	if _, err := Build(randData(10, 4, 1), Config{RMinShrink: 1.5}); err == nil {
		t.Error("RMinShrink > 1 should fail")
	}
}

func TestDefaults(t *testing.T) {
	ix, err := Build(randData(100, 8, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.M() != paperM {
		t.Errorf("M = %d at d = 8, want the paper's %d", ix.M(), paperM)
	}
	wide, err := Build(randData(100, DefaultMDim, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.M() != DefaultM {
		t.Errorf("M = %d at d = %d, want %d", wide.M(), DefaultMDim, DefaultM)
	}
	if ix.Tree().NumPivots() != DefaultPivots {
		t.Errorf("pivots = %d, want %d", ix.Tree().NumPivots(), DefaultPivots)
	}
	if ix.Len() != 100 || ix.Dim() != 8 {
		t.Errorf("Len/Dim = %d/%d", ix.Len(), ix.Dim())
	}
	if ix.T() <= 0 {
		t.Errorf("T = %v", ix.T())
	}
}

func TestExplicitZeroPivots(t *testing.T) {
	ix, err := Build(randData(50, 6, 1), Config{ExplicitZeroPivots: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree().NumPivots() != 0 {
		t.Errorf("pivots = %d, want 0", ix.Tree().NumPivots())
	}
}

// t must equal sqrt(χ²_{α1}(m)): for m=15, α1=1/e the upper quantile is
// ≈ 16.18, so t ≈ 4.02. Sanity check the magnitude.
func TestDerivedT(t *testing.T) {
	ix, err := Build(randData(50, 6, 1), Config{M: 15})
	if err != nil {
		t.Fatal(err)
	}
	if ix.T() < 3.5 || ix.T() > 4.5 {
		t.Errorf("t = %v, expected ≈ 4.0 for m=15, α1=1/e", ix.T())
	}
}

func TestDeriveParams(t *testing.T) {
	ix, _ := Build(randData(50, 6, 1), Config{})
	if _, err := ix.DeriveParams(1.0); err == nil {
		t.Error("c=1 should fail")
	}
	p15, err := ix.DeriveParams(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if p15.Alpha2 <= 0 || p15.Alpha2 >= 1 || p15.Beta != 2*p15.Alpha2 {
		t.Errorf("params: %+v", p15)
	}
	// Larger c shrinks t²/c², hence α2 and β must decrease.
	p20, _ := ix.DeriveParams(2.0)
	if p20.Alpha2 >= p15.Alpha2 {
		t.Errorf("α2 should decrease with c: %v vs %v", p20.Alpha2, p15.Alpha2)
	}
}

func TestKNNValidation(t *testing.T) {
	data := randData(50, 6, 3)
	ix, _ := Build(data, Config{})
	if _, err := ix.Search(context.Background(), []float64{1}, 5, SearchOptions{C: 1.5}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := ix.Search(context.Background(), data[0], 0, SearchOptions{C: 1.5}); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestKNNFindsSelf(t *testing.T) {
	data := randData(500, 16, 4)
	ix, _ := Build(data, Config{Seed: 9})
	for i := 0; i < 20; i++ {
		res, err := ix.Search(context.Background(), data[i*7], 1, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("query %d: got %d results", i, len(res))
		}
		if res[0].Dist != 0 {
			t.Errorf("query %d: self distance %v", i, res[0].Dist)
		}
	}
}

// clusteredData mimics the paper's real datasets: Gaussian clusters in
// a low-dimensional subspace (low LID), which is the regime where LSH
// recall is high. Pure iid Gaussian data (LID = d) is deliberately NOT
// used here — it is the known worst case for any LSH scheme.
func clusteredData(n, d, clusters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 20
		}
		centers[i] = c
	}
	out := make([][]float64, n)
	for i := range out {
		c := centers[rng.Intn(clusters)]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*2
		}
		out[i] = p
	}
	return out
}

func TestKNNQualityOnClusteredData(t *testing.T) {
	// The paper reports ≥ 0.84 recall and ≤ 1.01 overall ratio at the
	// default parameters on every real dataset; verify we land in that
	// regime on data with comparable structure.
	data := clusteredData(2000, 24, 10, 5)
	ix, _ := Build(data, Config{Seed: 3})
	rng := rand.New(rand.NewSource(6))
	const k = 10
	var recallSum, ratioSum float64
	violations := 0
	const queries = 30
	for qi := 0; qi < queries; qi++ {
		q := vec.Clone(data[rng.Intn(len(data))])
		for j := range q {
			q[j] += rng.NormFloat64() * 0.5
		}
		got, err := ix.Search(context.Background(), q, k, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("got %d results, want %d", len(got), k)
		}
		exact := exactKNN(data, q, k)
		exactIDs := make(map[int32]bool, k)
		for _, e := range exact {
			exactIDs[e.ID] = true
		}
		hit := 0
		for _, g := range got {
			if exactIDs[g.ID] {
				hit++
			}
		}
		recallSum += float64(hit) / k
		for i := range got {
			ratioSum += got[i].Dist / math.Max(exact[i].Dist, 1e-12)
		}
		// The c²-approximation holds with constant probability per the
		// theory; empirically it should hold for nearly every query.
		if got[0].Dist > 1.5*1.5*exact[0].Dist+1e-9 {
			violations++
		}
	}
	recall := recallSum / queries
	ratio := ratioSum / (queries * k)
	if recall < 0.8 {
		t.Errorf("mean recall %v below 0.8", recall)
	}
	if ratio > 1.05 {
		t.Errorf("mean overall ratio %v above 1.05", ratio)
	}
	if violations > 2 {
		t.Errorf("%d/%d queries violated the c² bound", violations, queries)
	}
}

func TestKNNResultsSortedUnique(t *testing.T) {
	data := randData(800, 12, 7)
	ix, _ := Build(data, Config{Seed: 2})
	rng := rand.New(rand.NewSource(8))
	for qi := 0; qi < 10; qi++ {
		q := make([]float64, 12)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		res, err := ix.Search(context.Background(), q, 20, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int32]bool)
		for i, r := range res {
			if seen[r.ID] {
				t.Fatalf("duplicate id %d", r.ID)
			}
			seen[r.ID] = true
			if i > 0 && res[i].Dist < res[i-1].Dist {
				t.Fatal("results not sorted")
			}
			if math.Abs(r.Dist-vec.L2(q, data[r.ID])) > 1e-9 {
				t.Fatal("reported distance is wrong")
			}
		}
	}
}

func TestKNNStats(t *testing.T) {
	data := randData(1500, 16, 9)
	ix, _ := Build(data, Config{Seed: 4})
	q := randData(1, 16, 99)[0]
	var st QueryStats
	res, err := ix.Search(context.Background(), q, 10, SearchOptions{C: 1.5, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if st.Rounds < 1 {
		t.Error("at least one round expected")
	}
	if st.Verified == 0 || st.ProjectedDistComps == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if st.Verified > len(data) {
		t.Errorf("verified %d > n", st.Verified)
	}
	// The paper's efficiency claim: the candidate set is a small
	// fraction of n (βn + k with β ≈ 0.28 at c=1.5 plus round slack).
	if st.Verified > len(data)/2 {
		t.Errorf("verified %d — more than half the dataset", st.Verified)
	}
}

// Accessing fewer than all points: verified count should be ≈ βn+k,
// not n (sub-linear probing is the headline of Theorem 2).
func TestKNNSublinearProbing(t *testing.T) {
	data := randData(3000, 20, 10)
	ix, _ := Build(data, Config{Seed: 5})
	params, _ := ix.DeriveParams(1.5)
	q := randData(1, 20, 100)[0]
	var st QueryStats
	_, err := ix.Search(context.Background(), q, 5, SearchOptions{C: 1.5, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	bound := int(params.Beta*float64(len(data))) + 5
	// Allow slack for the last round finishing its batch.
	if st.Verified > bound+bound/2 {
		t.Errorf("verified %d exceeds ~βn+k = %d", st.Verified, bound)
	}
}

func TestKNNMoreThanDataset(t *testing.T) {
	data := randData(20, 8, 11)
	ix, _ := Build(data, Config{Seed: 1})
	res, err := ix.Search(context.Background(), data[0], 50, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) > 20 {
		t.Errorf("returned %d results from 20 points", len(res))
	}
	if len(res) < 15 {
		t.Errorf("should find nearly all points, got %d", len(res))
	}
}

func TestBallCover(t *testing.T) {
	data := randData(1000, 16, 12)
	ix, _ := Build(data, Config{Seed: 6})
	q := vec.Clone(data[17])

	// Radius validation.
	if _, err := ix.SearchBall(context.Background(), q, 0, SearchOptions{C: 2}); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := ix.SearchBall(context.Background(), []float64{1}, 1, SearchOptions{C: 2}); err == nil {
		t.Error("dim mismatch should fail")
	}

	// A ball centred on a data point with any radius must return it (or
	// something at most c·r away).
	res, err := ix.SearchBall(context.Background(), q, 1.0, SearchOptions{C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("BallCover found nothing although q ∈ D")
	}
	if res.Dist > 2.0 {
		t.Errorf("returned point at %v > c·r", res.Dist)
	}

	// A far-away query with a tiny radius should usually return nothing.
	far := make([]float64, 16)
	for i := range far {
		far[i] = 1e6
	}
	res, err = ix.SearchBall(context.Background(), far, 1e-6, SearchOptions{C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Errorf("far query returned %+v", res)
	}
}

func TestDeterministicBuilds(t *testing.T) {
	data := randData(300, 10, 13)
	ix1, _ := Build(data, Config{Seed: 42})
	ix2, _ := Build(data, Config{Seed: 42})
	q := randData(1, 10, 7)[0]
	r1, _ := ix1.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	r2, _ := ix2.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if len(r1) != len(r2) {
		t.Fatal("different result counts")
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatal("same seed must give identical results")
		}
	}
}

func TestProjectRoundTrip(t *testing.T) {
	data := randData(50, 9, 14)
	ix, _ := Build(data, Config{})
	p := ix.Project(data[0])
	if len(p) != ix.M() {
		t.Errorf("projection length %d, want %d", len(p), ix.M())
	}
}

func TestInsert(t *testing.T) {
	data := clusteredData(500, 16, 5, 30)
	ix, err := Build(data[:400], Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 500; i++ {
		id, err := ix.Insert(data[i])
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("insert %d assigned id %d", i, id)
		}
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Every inserted point must be findable as its own NN.
	for i := 400; i < 500; i += 10 {
		res, err := ix.Search(context.Background(), data[i], 1, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != int32(i) || res[0].Dist != 0 {
			t.Errorf("inserted point %d not found: %+v", i, res)
		}
	}
	// Dimension mismatch rejected.
	if _, err := ix.Insert([]float64{1}); err == nil {
		t.Error("dim mismatch insert should fail")
	}
}

// An index built incrementally must answer queries with quality
// equivalent to a batch-built one (the trees differ structurally, but
// candidate selection uses the same projections).
func TestInsertEquivalentQuality(t *testing.T) {
	data := clusteredData(1200, 16, 6, 31)
	batch, _ := Build(data, Config{Seed: 9})
	incr, _ := Build(data[:600], Config{Seed: 9})
	for _, p := range data[600:] {
		if _, err := incr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	var match int
	const queries, k = 15, 10
	for qi := 0; qi < queries; qi++ {
		q := vec.Clone(data[rng.Intn(len(data))])
		for j := range q {
			q[j] += rng.NormFloat64() * 0.3
		}
		a, err := batch.Search(context.Background(), q, k, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := incr.Search(context.Background(), q, k, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int32]bool{}
		for _, r := range a {
			ids[r.ID] = true
		}
		for _, r := range b {
			if ids[r.ID] {
				match++
			}
		}
	}
	if overlap := float64(match) / float64(queries*k); overlap < 0.8 {
		t.Errorf("batch/incremental overlap %v below 0.8", overlap)
	}
}

// Queries must be safe under concurrency (run with -race) and return
// identical results to sequential execution.
func TestConcurrentQueries(t *testing.T) {
	data := clusteredData(1000, 16, 5, 32)
	ix, _ := Build(data, Config{Seed: 10})
	queries := make([][]float64, 16)
	rng := rand.New(rand.NewSource(18))
	for i := range queries {
		q := vec.Clone(data[rng.Intn(len(data))])
		for j := range q {
			q[j] += rng.NormFloat64() * 0.3
		}
		queries[i] = q
	}
	sequential := make([][]Result, len(queries))
	for i, q := range queries {
		res, err := ix.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	parallel := make([][]Result, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i], errs[i] = ix.Search(context.Background(), queries[i], 5, SearchOptions{C: 1.5})
		}(i)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(parallel[i]) != len(sequential[i]) {
			t.Fatalf("query %d: parallel %d vs sequential %d results", i, len(parallel[i]), len(sequential[i]))
		}
		for j := range parallel[i] {
			if parallel[i][j].ID != sequential[i][j].ID {
				t.Fatalf("query %d pos %d: parallel result differs", i, j)
			}
		}
	}
}

func TestDuplicateHeavyDataset(t *testing.T) {
	// Half the dataset is one duplicated point: r_min selection must
	// survive a distance distribution with mass at zero.
	data := make([][]float64, 200)
	for i := range data {
		if i < 100 {
			data[i] = []float64{1, 1, 1, 1}
		} else {
			data[i] = []float64{float64(i), 1, 2, 3}
		}
	}
	ix, err := Build(data, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(context.Background(), []float64{1, 1, 1, 1}, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].Dist != 0 {
		t.Errorf("duplicate query results: %+v", res)
	}
}
