package qalsh

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vec"
)

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

func exactKNN(data [][]float64, q []float64, k int) []metrics.Neighbor {
	out := make([]metrics.Neighbor, 0, len(data))
	for i, p := range data {
		out = append(out, metrics.Neighbor{ID: int32(i), Dist: vec.L2(q, p)})
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
	data := clusteredData(20, 4, 2, 1)
	if _, err := Build(data, Config{C: 0.5}); err == nil {
		t.Error("c < 1 should fail")
	}
	if _, err := Build(data, Config{Delta: 1.5}); err == nil {
		t.Error("delta > 1 should fail")
	}
	if _, err := Build(data, Config{BetaN: -1}); err == nil {
		t.Error("negative BetaN should fail")
	}
}

func TestDerivedParameters(t *testing.T) {
	data := clusteredData(5000, 8, 4, 2)
	ix, err := Build(data, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// QALSH's hallmark (and the PM-LSH paper's criticism): a large,
	// O(log n) number of hash functions.
	if ix.NumHashes() < 50 {
		t.Errorf("m = %d, expected the QALSH-typical large hash count", ix.NumHashes())
	}
	if ix.CollisionThreshold() < 1 || ix.CollisionThreshold() > ix.NumHashes() {
		t.Errorf("l = %d out of range", ix.CollisionThreshold())
	}
	// Derived w for c=1.5: sqrt(8·2.25·ln1.5/1.25) ≈ 2.416.
	if math.Abs(ix.W()-2.416) > 0.01 {
		t.Errorf("w = %v, want ≈ 2.416", ix.W())
	}
}

func TestHashCapRespected(t *testing.T) {
	data := clusteredData(2000, 6, 4, 3)
	ix, err := Build(data, Config{Seed: 1, MaxHashes: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumHashes() > 40 {
		t.Errorf("m = %d exceeds cap", ix.NumHashes())
	}
}

func TestKNNValidation(t *testing.T) {
	data := clusteredData(50, 6, 2, 4)
	ix, _ := Build(data, Config{Seed: 2, MaxHashes: 30})
	if _, err := ix.KNN([]float64{1}, 5); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := ix.KNN(data[0], 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestKNNFindsSelf(t *testing.T) {
	data := clusteredData(500, 12, 5, 5)
	ix, _ := Build(data, Config{Seed: 3})
	for i := 0; i < 10; i++ {
		res, err := ix.KNN(data[i*31], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Dist != 0 {
			t.Errorf("query %d: %+v", i, res)
		}
	}
}

func TestKNNQuality(t *testing.T) {
	data := clusteredData(2000, 24, 10, 6)
	ix, _ := Build(data, Config{Seed: 4})
	rng := rand.New(rand.NewSource(7))
	const k, queries = 10, 20
	var recallSum float64
	for qi := 0; qi < queries; qi++ {
		q := vec.Clone(data[rng.Intn(len(data))])
		for j := range q {
			q[j] += rng.NormFloat64() * 0.5
		}
		got, err := ix.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactKNN(data, q, k)
		ids := make(map[int32]bool)
		for _, e := range exact {
			ids[e.ID] = true
		}
		hit := 0
		for _, g := range got {
			if ids[g.ID] {
				hit++
			}
		}
		recallSum += float64(hit) / k
	}
	if recall := recallSum / queries; recall < 0.6 {
		t.Errorf("mean recall %v below 0.6", recall)
	}
}

func TestCandidateBudget(t *testing.T) {
	data := clusteredData(3000, 16, 8, 8)
	ix, _ := Build(data, Config{Seed: 5, BetaN: 50})
	q := make([]float64, 16)
	_, st, err := ix.KNNWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// βn + k plus the slack of finishing the last round's window.
	if st.Verified > 3000/2 {
		t.Errorf("verified %d, expected bounded candidate set", st.Verified)
	}
	if st.Rounds < 1 {
		t.Error("no rounds recorded")
	}
}

func TestResultsSortedUnique(t *testing.T) {
	data := clusteredData(800, 10, 4, 9)
	ix, _ := Build(data, Config{Seed: 6})
	rng := rand.New(rand.NewSource(10))
	for qi := 0; qi < 8; qi++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64() * 15
		}
		res, err := ix.KNN(q, 15)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int32]bool)
		for i, r := range res {
			if seen[r.ID] {
				t.Fatal("duplicate result")
			}
			seen[r.ID] = true
			if i > 0 && res[i].Dist < res[i-1].Dist {
				t.Fatal("unsorted results")
			}
			if math.Abs(r.Dist-vec.L2(q, data[r.ID])) > 1e-9 {
				t.Fatal("wrong distance")
			}
		}
	}
}

func TestSmallDatasetExhaustion(t *testing.T) {
	// k larger than n must terminate and return everything reachable.
	data := clusteredData(15, 6, 2, 11)
	ix, _ := Build(data, Config{Seed: 7, MaxHashes: 30})
	res, err := ix.KNN(data[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) > 15 {
		t.Errorf("returned %d from 15 points", len(res))
	}
	if len(res) == 0 {
		t.Error("should find at least some points")
	}
}

func TestEpochIsolation(t *testing.T) {
	// Two consecutive queries must not leak collision counts.
	data := clusteredData(300, 8, 3, 12)
	ix, _ := Build(data, Config{Seed: 8})
	r1, err := ix.KNN(data[5], 5)
	if err != nil {
		t.Fatal(err)
	}
	r1b, err := ix.KNN(data[5], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r1b) {
		t.Fatalf("repeat query differs: %d vs %d", len(r1), len(r1b))
	}
	for i := range r1 {
		if r1[i].ID != r1b[i].ID {
			t.Fatal("repeat query returned different results")
		}
	}
}
