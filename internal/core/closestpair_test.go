package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lscan"
)

func cpDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "cp", N: n, D: 32, Clusters: 16, SubspaceDim: 6, RCTarget: 2.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// checkPairs validates shape invariants and the (c,k) quality criterion
// against brute force: the i-th returned distance must be within factor
// c of the exact i-th closest pair distance.
func checkPairs(t *testing.T, got []Pair, exact []lscan.PairResult, k int, c float64) {
	t.Helper()
	if len(got) != k {
		t.Fatalf("got %d pairs, want %d", len(got), k)
	}
	seen := make(map[[2]int32]bool)
	prev := math.Inf(-1)
	for i, p := range got {
		if p.I >= p.J {
			t.Fatalf("pair %d: ids not ordered: %+v", i, p)
		}
		key := [2]int32{p.I, p.J}
		if seen[key] {
			t.Fatalf("pair %d: duplicate %v", i, key)
		}
		seen[key] = true
		if p.Dist < prev {
			t.Fatalf("pair %d: unsorted (%v after %v)", i, p.Dist, prev)
		}
		prev = p.Dist
		if limit := c*exact[i].Dist + 1e-9; p.Dist > limit {
			t.Fatalf("pair %d: distance %v exceeds c×exact = %v (exact %v)",
				i, p.Dist, limit, exact[i].Dist)
		}
	}
}

func TestClosestPairsVsBruteForce(t *testing.T) {
	ds := cpDataset(t, 800, 31)
	ix, err := Build(ds.Points, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 20
	const c = 1.5
	exact, err := lscan.ClosestPairs(ds.Points, k)
	if err != nil {
		t.Fatal(err)
	}
	var st CPStats
	got, err := ix.SearchPairs(context.Background(), k, SearchOptions{C: c, PairStats: &st})
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, got, exact, k, c)
	if st.Enumerated == 0 || st.Verified != st.Enumerated || st.ProjectedDistComps == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	// The self-join must not verify anywhere near all n(n-1)/2 pairs.
	n := ds.Spec.N
	if st.Verified >= n*(n-1)/4 {
		t.Errorf("verified %d pairs of %d — no pruning", st.Verified, n*(n-1)/2)
	}
}

func TestClosestPairsFindsPlantedDuplicates(t *testing.T) {
	// Plant near-copies; the closest pairs must be exactly those.
	ds := cpDataset(t, 600, 41)
	rng := rand.New(rand.NewSource(8))
	pts := ds.Points
	const planted = 12
	type plant struct{ orig, copy int32 }
	var plants []plant
	for i := 0; i < planted; i++ {
		src := rng.Intn(600)
		dup := make([]float64, len(pts[src]))
		for j := range dup {
			dup[j] = pts[src][j] + rng.NormFloat64()*1e-4
		}
		plants = append(plants, plant{int32(src), int32(len(pts))})
		pts = append(pts, dup)
	}
	ix, err := Build(pts, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchPairs(context.Background(), planted, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int32]bool, planted)
	for _, p := range plants {
		want[[2]int32{p.orig, p.copy}] = true
	}
	hits := 0
	for _, p := range got {
		if want[[2]int32{p.I, p.J}] {
			hits++
		}
	}
	if hits < planted-1 { // allow one accidental closer natural pair
		t.Errorf("found %d of %d planted duplicate pairs: %+v", hits, planted, got)
	}
}

func TestClosestPairsEdgeCases(t *testing.T) {
	ds := cpDataset(t, 300, 43)

	t.Run("k<=0", func(t *testing.T) {
		ix, _ := Build(ds.Points, Config{Seed: 1})
		if _, err := ix.SearchPairs(context.Background(), 0, SearchOptions{C: 1.5}); err == nil {
			t.Error("k=0 should fail")
		}
		if _, err := ix.SearchPairs(context.Background(), -3, SearchOptions{C: 1.5}); err == nil {
			t.Error("negative k should fail")
		}
	})

	t.Run("single point", func(t *testing.T) {
		ix, err := Build(ds.Points[:1], Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchPairs(context.Background(), 5, SearchOptions{C: 1.5})
		if err != nil || len(res) != 0 {
			t.Errorf("single-point index: res=%v err=%v", res, err)
		}
	})

	t.Run("k exceeds pair count", func(t *testing.T) {
		ix, err := Build(ds.Points[:4], Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.SearchPairs(context.Background(), 100, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 6 { // 4 choose 2
			t.Errorf("got %d pairs, want all 6", len(res))
		}
	})

	t.Run("default c", func(t *testing.T) {
		ix, _ := Build(ds.Points[:50], Config{Seed: 1})
		res, err := ix.SearchPairs(context.Background(), 3, SearchOptions{C: 0})
		if err != nil || len(res) != 3 {
			t.Errorf("default-c closest pairs: res=%v err=%v", res, err)
		}
	})
}

func TestClosestPairsAfterInsert(t *testing.T) {
	// Inserted points participate in the self-join.
	ds := cpDataset(t, 400, 47)
	ix, err := Build(ds.Points, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a near-copy of point 10; the closest pair must include it.
	dup := make([]float64, len(ds.Points[10]))
	copy(dup, ds.Points[10])
	dup[0] += 1e-7
	id, err := ix.Insert(dup)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SearchPairs(context.Background(), 1, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].I != 10 || got[0].J != id {
		t.Errorf("closest pair after insert: %+v, want (10,%d)", got, id)
	}
}
