package pmlsh

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/vec"
)

func testData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "api", N: n, D: 32, Clusters: 8, SubspaceDim: 6, RCTarget: 2.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildAndQuery(t *testing.T) {
	ds := testData(t, 1000)
	ix, err := Build(ds.Points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1000 || ix.Dim() != 32 || ix.M() != 15 {
		t.Errorf("accessors: %d %d %d", ix.Len(), ix.Dim(), ix.M())
	}
	res, err := ix.Search(context.Background(), ds.Points[7], 5, WithRatio(1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].Dist != 0 || res[0].ID != 7 {
		t.Errorf("self query: %+v", res)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Error("unsorted results")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Build([][]float64{{1}, {1, 2}}, Config{}); err == nil {
		t.Error("ragged data should fail")
	}
}

func TestDefaultC(t *testing.T) {
	ds := testData(t, 300)
	ix, _ := Build(ds.Points, Config{Seed: 2})
	// c <= 0 selects the default.
	res, err := ix.Search(context.Background(), ds.Points[0], 3, WithRatio(0))
	if err != nil || len(res) != 3 {
		t.Errorf("default-c query: %v %v", res, err)
	}
}

func TestKNNWithStats(t *testing.T) {
	ds := testData(t, 800)
	ix, _ := Build(ds.Points, Config{Seed: 3})
	var st QueryStats
	res, err := ix.Search(context.Background(), ds.Queries(1, 4)[0], 10, WithRatio(1.5), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 || st.Rounds < 1 || st.Verified < 10 {
		t.Errorf("res=%d stats=%+v", len(res), st)
	}
}

func TestBallCover(t *testing.T) {
	ds := testData(t, 500)
	ix, _ := Build(ds.Points, Config{Seed: 4})
	nb, err := ix.SearchBall(context.Background(), ds.Points[3], 0.5, WithRatio(2))
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil || nb.Dist > 1.0 {
		t.Errorf("ball cover on a data point: %+v", nb)
	}
	far := make([]float64, 32)
	for i := range far {
		far[i] = 1e6
	}
	nb, err = ix.SearchBall(context.Background(), far, 1e-3, WithRatio(2))
	if err != nil {
		t.Fatal(err)
	}
	if nb != nil {
		t.Errorf("far ball cover returned %+v", nb)
	}
}

func TestDeriveParams(t *testing.T) {
	ds := testData(t, 300)
	ix, _ := Build(ds.Points, Config{Seed: 5})
	p, err := ix.DeriveParams(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.T <= 0 || p.Beta != 2*p.Alpha2 {
		t.Errorf("params: %+v", p)
	}
}

func TestConfigVariants(t *testing.T) {
	ds := testData(t, 600)
	for _, cfg := range []Config{
		{Seed: 6, ZeroPivots: true},
		{Seed: 6, NumPivots: 8},
		{Seed: 6, M: 10, Alpha1: 0.2},
	} {
		ix, err := Build(ds.Points, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		res, err := ix.Search(context.Background(), ds.Points[11], 3, WithRatio(1.5))
		if err != nil || len(res) != 3 {
			t.Fatalf("cfg %+v: %v %v", cfg, res, err)
		}
		if res[0].ID != 11 {
			t.Errorf("cfg %+v: self not found", cfg)
		}
	}
}

// End-to-end quality at the public API: recall and ratio in the
// regime the paper reports.
func TestEndToEndQuality(t *testing.T) {
	ds := testData(t, 2000)
	ix, err := Build(ds.Points, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries(25, 8)
	truth, err := dataset.GroundTruth(ds.Points, queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	var recallSum, ratioSum float64
	for qi, q := range queries {
		res, err := ix.Search(context.Background(), q, 10, WithRatio(1.5))
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int32]bool{}
		for _, n := range truth[qi] {
			ids[n.ID] = true
		}
		hits := 0
		for _, r := range res {
			if ids[r.ID] {
				hits++
			}
		}
		recallSum += float64(hits) / 10
		for i := range res {
			ratioSum += res[i].Dist / math.Max(truth[qi][i].Dist, 1e-12)
		}
	}
	recall := recallSum / 25
	ratio := ratioSum / 250
	if recall < 0.8 {
		t.Errorf("recall %v below 0.8", recall)
	}
	if ratio > 1.03 {
		t.Errorf("ratio %v above 1.03", ratio)
	}
}

func TestFacadeSaveLoadAndInsert(t *testing.T) {
	ds := testData(t, 600)
	ix, err := Build(ds.Points, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries(1, 12)[0]
	a, _ := ix.Search(context.Background(), q, 5, WithRatio(1.5))
	b, _ := loaded.Search(context.Background(), q, 5, WithRatio(1.5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("save/load changed query results")
		}
	}
	if f := loaded.Info().TailFraction; len(f) != 1 || f[0] != 0 {
		t.Errorf("loaded index reports tail fractions %v, want [0]", f)
	}
	id, err := loaded.Insert(ds.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 600 {
		t.Errorf("insert id %d, want 600", id)
	}
	if loaded.Len() != 601 {
		t.Errorf("Len after insert = %d", loaded.Len())
	}
	if f := loaded.Info().TailFraction; f[0] != 1.0/601 {
		t.Errorf("one insert into a loaded 600-point tree left the tail fraction at %v", f[0])
	}
}

// TestInfoDeadFractionPerShard: Info reports each shard's dead share,
// and a Delete moves it for the shard that holds the id (global id
// mod the shard count) and for no other.
func TestInfoDeadFractionPerShard(t *testing.T) {
	ds := testData(t, 600)
	ix, err := Build(ds.Points, Config{Seed: 11, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f := ix.Info().DeadFraction; len(f) != 3 || f[0] != 0 || f[1] != 0 || f[2] != 0 {
		t.Fatalf("fresh index reports dead fractions %v, want [0 0 0]", f)
	}
	const id = 7 // 7 mod 3: shard 1
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	info := ix.Info()
	if f := info.DeadFraction; f[0] != 0 || f[1] != 1.0/200 || f[2] != 0 {
		t.Errorf("one delete from shard 1 left dead fractions %v, want [0 %v 0]", f, 1.0/200)
	}
	if info.Dead != 1 || info.Live != 599 {
		t.Errorf("Dead %d Live %d after one delete, want 1 and 599", info.Dead, info.Live)
	}
}

// Distances reported by the public API are exact original-space
// distances, never estimates.
func TestReportedDistancesExact(t *testing.T) {
	ds := testData(t, 400)
	ix, _ := Build(ds.Points, Config{Seed: 9})
	rng := rand.New(rand.NewSource(10))
	q := vec.Clone(ds.Points[rng.Intn(400)])
	res, _ := ix.Search(context.Background(), q, 8, WithRatio(1.5))
	for _, r := range res {
		want := vec.L2(q, ds.Points[r.ID])
		if math.Abs(r.Dist-want) > 1e-9 {
			t.Fatalf("id %d: reported %v, actual %v", r.ID, r.Dist, want)
		}
	}
	// And sorted.
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Dist < res[j].Dist }) {
		t.Error("results unsorted")
	}
}

func TestClosestPairsAPI(t *testing.T) {
	ds := testData(t, 600)
	ix, err := Build(ds.Points, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const k, c = 12, 1.5
	exact, err := lscan.ClosestPairs(ds.Points, k)
	if err != nil {
		t.Fatal(err)
	}
	var st CPStats
	pairs, err := ix.SearchPairs(context.Background(), k, WithRatio(c), WithPairStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != k || st.Verified == 0 || st.Rounds < 1 {
		t.Fatalf("pairs=%d stats=%+v", len(pairs), st)
	}
	for i, p := range pairs {
		if p.I >= p.J {
			t.Errorf("pair %d ids not ordered: %+v", i, p)
		}
		if i > 0 && p.Dist < pairs[i-1].Dist {
			t.Errorf("pair %d unsorted", i)
		}
		if p.Dist > c*exact[i].Dist+1e-9 {
			t.Errorf("pair %d: %v exceeds c x exact %v", i, p.Dist, exact[i].Dist)
		}
	}
	// The plain variant matches the stats variant.
	plain, err := ix.SearchPairs(context.Background(), k, WithRatio(c))
	if err != nil || len(plain) != k {
		t.Fatalf("plain variant: %v %v", plain, err)
	}
}
