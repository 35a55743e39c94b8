package srs

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
	data := clusteredData(20, 6, 2, 1)
	if _, err := Build(data, Config{PTau: 1.5}); err == nil {
		t.Error("PTau > 1 should fail")
	}
	if _, err := Build(data, Config{MaxFraction: -0.1}); err == nil {
		t.Error("negative MaxFraction should fail")
	}
}

func TestDefaults(t *testing.T) {
	data := clusteredData(100, 8, 3, 2)
	ix, err := Build(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.cfg.M != DefaultM || ix.cfg.PTau != DefaultPTau || ix.cfg.MaxFraction != DefaultT {
		t.Errorf("defaults not applied: %+v", ix.cfg)
	}
	if ix.Len() != 100 || ix.Dim() != 8 {
		t.Errorf("Len/Dim: %d %d", ix.Len(), ix.Dim())
	}
	if ix.Tree() == nil {
		t.Error("Tree accessor nil")
	}
}

func TestKNNValidation(t *testing.T) {
	data := clusteredData(50, 6, 2, 3)
	ix, _ := Build(data, Config{})
	if _, err := ix.KNN([]float64{1}, 5); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := ix.KNN(data[0], 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := ix.KNN(data[0], -1); err == nil {
		t.Error("k=-1 should fail")
	}
}

func TestKNNFindsSelf(t *testing.T) {
	data := clusteredData(400, 16, 5, 4)
	ix, _ := Build(data, Config{Seed: 7})
	for i := 0; i < 15; i++ {
		res, err := ix.KNN(data[i*13], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Dist != 0 {
			t.Errorf("query %d: %+v", i, res)
		}
	}
}

func TestKNNQuality(t *testing.T) {
	data := clusteredData(2000, 24, 10, 5)
	ix, _ := Build(data, Config{Seed: 3})
	rng := rand.New(rand.NewSource(6))
	const k, queries = 10, 30
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
	if recall := recallSum / queries; recall < 0.75 {
		t.Errorf("mean recall %v below 0.75", recall)
	}
}

func TestAccessBudgetRespected(t *testing.T) {
	data := clusteredData(1000, 12, 4, 8)
	ix, _ := Build(data, Config{Seed: 2, MaxFraction: 0.1, PTau: 0.9999999})
	q := make([]float64, 12)
	_, st, err := ix.KNNWithStats(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accessed > 100 {
		t.Errorf("accessed %d > T·n = 100", st.Accessed)
	}
}

func TestEarlyTermination(t *testing.T) {
	// With a generous threshold and an easy query (a data point), SRS
	// should terminate before exhausting its T·n budget.
	data := clusteredData(2000, 16, 8, 9)
	ix, _ := Build(data, Config{Seed: 4})
	_, st, err := ix.KNNWithStats(data[100], 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.EarlyTerminated {
		t.Error("expected early termination on an easy query")
	}
	if st.Accessed >= int(DefaultT*2000) {
		t.Errorf("accessed %d, expected early stop", st.Accessed)
	}
}

func TestResultsSortedUniqueExactDistances(t *testing.T) {
	data := clusteredData(600, 10, 4, 10)
	ix, _ := Build(data, Config{Seed: 5})
	rng := rand.New(rand.NewSource(11))
	for qi := 0; qi < 10; qi++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64() * 15
		}
		res, err := ix.KNN(q, 12)
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
				t.Fatal("wrong reported distance")
			}
		}
	}
}
