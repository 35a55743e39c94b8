package qalsh

import (
	"fmt"
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

// collisions returns how many lists' windows reached id in the last
// query, failing when a point was counted more often than there are
// lists: each list holds each point once, so a frontier that stepped
// over an item twice shows here.
func collisions(t *testing.T, ix *Index, id int32) int {
	t.Helper()
	if ix.stamp[id] != ix.epoch {
		return 0
	}
	c := int(ix.counts[id])
	if c > ix.m {
		t.Fatalf("point %d counted %d times in %d lists", id, c, ix.m)
	}
	return c
}

// Identical points share every key. However the seek lands among
// them, the two sides of a frontier step over each copy once, so the
// copies collide equally often and all come back at distance 0.
func TestFrontierDuplicateKeys(t *testing.T) {
	base := clusteredData(200, 8, 3, 15)
	data := append([][]float64(nil), base...)
	for i := 0; i < 6; i++ {
		data = append(data, base[17])
	}
	ix, _ := Build(data, Config{Seed: 10})
	res, _, err := ix.KNNWithStats(base[17], 7)
	if err != nil {
		t.Fatal(err)
	}
	copies := map[int32]bool{17: true}
	for id := 200; id < len(data); id++ {
		copies[int32(id)] = true
	}
	if len(res) < len(copies) {
		t.Fatalf("%d results, want at least the %d copies", len(res), len(copies))
	}
	for i, r := range res[:len(copies)] {
		if !copies[r.ID] || r.Dist != 0 {
			t.Errorf("result %d = %+v, want a copy of point 17 at distance 0", i, r)
		}
	}
	want := collisions(t, ix, 17)
	for id := range copies {
		if got := collisions(t, ix, id); got != want {
			t.Errorf("copy %d collided %d times, point 17 %d", id, got, want)
		}
	}
	for id := range data {
		collisions(t, ix, int32(id))
	}
}

// On one-dimensional data every list is the data's order or its
// reverse, so a query beyond the data projects above the largest key of
// some lists and below the smallest of the others. Each frontier then
// walks one side only, from the extreme point inward. checkOutsideQuery
// builds such an index, asks for the 3 nearest neighbours of the point
// x, and returns the number of lists whose keys all lie below the
// query's projection (past: true) or all above it (past: false).
func checkOutsideQuery(t *testing.T, x float64, past bool) int {
	t.Helper()
	data := make([][]float64, 100)
	for i := range data {
		data[i] = []float64{float64(i)}
	}
	ix, _ := Build(data, Config{Seed: 11, MaxHashes: 30})
	signs := map[bool]bool{}
	for _, a := range ix.funcs {
		signs[a[0] > 0] = true
	}
	if len(signs) != 2 {
		t.Fatal("every hash has the same sign: no list is walked from the other end")
	}
	q := []float64{x}
	res, _, err := ix.KNNWithStats(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactKNN(data, q, 3)
	if len(res) != len(exact) {
		t.Fatalf("query %v: %d results, want %d", x, len(res), len(exact))
	}
	for i := range res {
		if res[i] != exact[i] {
			t.Errorf("query %v: result %d = %+v, want %+v", x, i, res[i], exact[i])
		}
	}
	for id := range data {
		collisions(t, ix, int32(id))
	}
	outside := 0
	for j, list := range ix.lists {
		p := ix.funcs[j][0] * x
		if (past && list[len(list)-1].key < p) || (!past && list[0].key > p) {
			outside++
		}
	}
	return outside
}

// A query above the data projects past the largest key of the lists
// with a positive hash: those frontiers start at the last item.
func TestFrontierQueryPastEnd(t *testing.T) {
	if n := checkOutsideQuery(t, 1000, true); n == 0 {
		t.Error("no list has every key below the query: the past-the-end seek is not exercised")
	}
}

// A query below the data projects before the smallest key of the lists
// with a positive hash: those frontiers start at the first item.
func TestFrontierQueryBeforeStart(t *testing.T) {
	if n := checkOutsideQuery(t, -1000, false); n == 0 {
		t.Error("no list has every key above the query: the before-the-start seek is not exercised")
	}
}

// A first window wider than every list exhausts all frontiers in one
// round: each point is stepped over once in every list.
func TestFrontierExhaustion(t *testing.T) {
	data := clusteredData(300, 8, 3, 16)
	data = append(data, data[:20]...)
	ix, _ := Build(data, Config{Seed: 12, StartRadius: 1e12})
	n := len(data)
	_, st, err := ix.KNNWithStats(data[5], n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 || st.Verified != n || st.Frontier != n*ix.m {
		t.Errorf("stats %+v, want 1 round, %d verified, frontier %d", st, n, n*ix.m)
	}
	for id := 0; id < n; id++ {
		if c := collisions(t, ix, int32(id)); c != ix.m {
			t.Errorf("point %d collided %d times, want %d", id, c, ix.m)
		}
	}
}

// TestQueryStatsPinned pins the work of seeded queries, not only their
// answers: the rounds, verifications, frontier steps and ids below were
// recorded when each hash function's keys lived in a B+-tree walked by
// cursors, and a sorted-slice frontier must visit points in the same
// order. The data repeat 50 points, so every list holds duplicate keys.
func TestQueryStatsPinned(t *testing.T) {
	data := clusteredData(1000, 16, 6, 13)
	data = append(data, data[:50]...)
	ix, err := Build(data, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		st  QueryStats
		ids []int32
	}{
		{QueryStats{Rounds: 12, Verified: 13, Frontier: 14868}, []int32{281, 677, 27, 1027, 756}},
		{QueryStats{Rounds: 12, Verified: 30, Frontier: 15190}, []int32{577, 962, 451, 345, 49}},
		{QueryStats{Rounds: 12, Verified: 11, Frontier: 14709}, []int32{143, 122, 490, 244, 553}},
		{QueryStats{Rounds: 13, Verified: 72, Frontier: 19012}, []int32{411, 690, 167, 937, 851}},
		// A data point with a copy: both come back at distance 0.
		{QueryStats{Rounds: 12, Verified: 48, Frontier: 19392}, []int32{3, 1003, 685, 710, 948}},
		// Far from the data: every point is verified.
		{QueryStats{Rounds: 26, Verified: 1050, Frontier: 83307}, []int32{875, 582, 837, 772, 198}},
	}
	rng := rand.New(rand.NewSource(14))
	for qi, w := range want {
		q := make([]float64, 16)
		copy(q, data[rng.Intn(len(data))])
		for j := range q {
			q[j] += rng.NormFloat64()
		}
		switch qi {
		case 4:
			copy(q, data[3])
		case 5:
			for j := range q {
				q[j] = 500
			}
		}
		res, st, err := ix.KNNWithStats(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		if st != w.st || fmt.Sprint(ids) != fmt.Sprint(w.ids) {
			t.Errorf("query %d: %+v %v, want %+v %v", qi, st, ids, w.st, w.ids)
		}
	}
}
