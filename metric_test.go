package pmlsh

// Randomized equivalence suites for the reduced vector metrics: the
// index's cosine and inner-product answers are scored against a
// native-metric brute-force oracle — recall ≥ 0.8 on embedding-shaped
// data (d ≥ 256), per-rank native ratios reported — across both tree
// backends, Shards ∈ {1, 4}, and under churn. Plus the Jaccard
// public-API suite against an exact set-similarity oracle.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// embeddingData generates d=256 clustered vectors — the shape dense
// text/image embeddings take, which is what the reduced metrics are
// for.
func embeddingData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "embed", N: n, D: 256, Clusters: 10, SubspaceDim: 12, RCTarget: 2.0, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// nativeVectorDist is the oracle's exact native distance.
func nativeVectorDist(m Metric, q, p []float64) float64 {
	var dot, nq, np float64
	for i := range q {
		dot += q[i] * p[i]
		nq += q[i] * q[i]
		np += p[i] * p[i]
	}
	switch m {
	case MetricCosine:
		return 1 - dot/(math.Sqrt(nq)*math.Sqrt(np))
	case MetricInnerProduct:
		return -dot
	}
	panic("no native distance for " + m.String())
}

// nativeTopK brute-forces the k nearest live ids under m.
func nativeTopK(m Metric, live map[int32][]float64, q []float64, k int) []Neighbor {
	all := make([]Neighbor, 0, len(live))
	for id, p := range live {
		all = append(all, Neighbor{ID: id, Dist: nativeVectorDist(m, q, p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// runVectorMetricEquiv scores index answers against the native oracle
// and returns the mean recall plus the worst per-rank native ratio
// (answer dist vs oracle dist at the same rank, shifted to be
// scale-free for inner product).
func runVectorMetricEquiv(t *testing.T, ix *Index, m Metric, live map[int32][]float64, queries [][]float64, k int) (float64, float64) {
	t.Helper()
	var recallSum float64
	worstRatio := 1.0
	for _, q := range queries {
		truth := nativeTopK(m, live, q, k)
		res, err := ix.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(truth) {
			t.Fatalf("answered %d results, oracle has %d", len(res), len(truth))
		}
		truthIDs := make(map[int32]bool, len(truth))
		for _, n := range truth {
			truthIDs[n.ID] = true
		}
		hits := 0
		for i, n := range res {
			if truthIDs[n.ID] {
				hits++
			}
			// Reported distances must be the exact native distance of
			// the returned point, whatever its rank.
			want := nativeVectorDist(m, q, live[n.ID])
			if math.Abs(n.Dist-want) > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("id %d: reported dist %v, native %v", n.ID, n.Dist, want)
			}
			// Per-rank native ratio vs the oracle's i-th distance. Both
			// metrics order by a value that can be ≤ 0, so compare via
			// the gap to the oracle's best (rank-0) distance.
			gap := n.Dist - truth[0].Dist
			oracleGap := truth[i].Dist - truth[0].Dist
			if oracleGap > 1e-12 {
				if r := gap / oracleGap; r > worstRatio {
					worstRatio = r
				}
			}
		}
		recallSum += float64(hits) / float64(len(truth))
	}
	return recallSum / float64(len(queries)), worstRatio
}

func testVectorMetric(t *testing.T, m Metric) {
	ds := embeddingData(t, 1500)
	queries := ds.Queries(25, 91)
	k := 10
	for _, tc := range []struct {
		name   string
		cfg    Config
		minRec float64
	}{
		{"pmtree-1shard", Config{Seed: 5, Metric: m}, 0.8},
		{"pmtree-4shards", Config{Seed: 5, Metric: m, Shards: 4}, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(ds.Points, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Metric() != m || ix.Dim() != 256 {
				t.Fatalf("accessors: metric %v dim %d", ix.Metric(), ix.Dim())
			}
			live := make(map[int32][]float64, len(ds.Points))
			for i, p := range ds.Points {
				live[int32(i)] = p
			}
			recall, ratio := runVectorMetricEquiv(t, ix, m, live, queries, k)
			t.Logf("%s %s: recall@%d=%.3f worst per-rank native ratio=%.3f", m, tc.name, k, recall, ratio)
			if recall < tc.minRec {
				t.Errorf("recall %.3f below %.2f", recall, tc.minRec)
			}
		})
	}
}

func TestCosineEquivalence(t *testing.T)       { testVectorMetric(t, MetricCosine) }
func TestInnerProductEquivalence(t *testing.T) { testVectorMetric(t, MetricInnerProduct) }

// testVectorMetricChurn replays deletes and inserts against both the
// index and the oracle's live map, then re-scores recall.
func testVectorMetricChurn(t *testing.T, m Metric) {
	ds := embeddingData(t, 1200)
	ix, err := Build(ds.Points, Config{Seed: 5, Metric: m, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int32][]float64, len(ds.Points))
	for i, p := range ds.Points {
		live[int32(i)] = p
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		// Duplicate ids error and change nothing on either side.
		_ = ix.Delete(int32(rng.Intn(1200)))
	}
	// Re-sync the oracle with the index's ground-truth live set.
	for id := range live {
		if !ix.IsLive(id) {
			delete(live, id)
		}
	}
	for i := 0; i < 150; i++ {
		base := ds.Points[rng.Intn(1200)]
		p := make([]float64, len(base))
		for j := range p {
			p[j] = base[j] + 0.02*rng.NormFloat64()
		}
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = p
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	recall, ratio := runVectorMetricEquiv(t, ix, m, live, ds.Queries(20, 93), 10)
	t.Logf("%s churn: recall@10=%.3f worst per-rank native ratio=%.3f", m, recall, ratio)
	if recall < 0.8 {
		t.Errorf("churned recall %.3f below 0.8", recall)
	}
}

func TestCosineEquivalenceChurn(t *testing.T)       { testVectorMetricChurn(t, MetricCosine) }
func TestInnerProductEquivalenceChurn(t *testing.T) { testVectorMetricChurn(t, MetricInnerProduct) }

// jaccardCorpus plants clustered sets: nBase bases, each with variants
// sharing ~90% of tokens.
func jaccardCorpus(nBase, variants, setLen int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	var sets [][]uint64
	for b := 0; b < nBase; b++ {
		base := make([]uint64, setLen)
		for i := range base {
			base[i] = uint64(rng.Intn(1 << 20))
		}
		sets = append(sets, base)
		for v := 1; v < variants; v++ {
			variant := append([]uint64(nil), base...)
			for i := range variant {
				if rng.Float64() < 0.1 {
					variant[i] = uint64(rng.Intn(1 << 20))
				}
			}
			sets = append(sets, variant)
		}
	}
	return sets
}

func exactJaccard(a, b []uint64) float64 {
	as := make(map[uint64]bool, len(a))
	for _, t := range a {
		as[t] = true
	}
	bs := make(map[uint64]bool, len(b))
	inter := 0
	for _, t := range b {
		if !bs[t] {
			bs[t] = true
			if as[t] {
				inter++
			}
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func setAsFloats(set []uint64) []float64 {
	out := make([]float64, len(set))
	for i, tok := range set {
		out[i] = float64(tok)
	}
	return out
}

func TestJaccardSearch(t *testing.T) {
	sets := jaccardCorpus(60, 5, 40, 55)
	for _, shards := range []int{1, 4} {
		ix, err := BuildSets(sets, Config{Metric: MetricJaccard, Seed: 55, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Metric() != MetricJaccard || ix.Len() != len(sets) {
			t.Fatalf("accessors: metric %v len %d", ix.Metric(), ix.Len())
		}
		found := 0
		for qi := 0; qi < 60; qi++ {
			q := qi * 5 // each cluster's base set
			res, err := ix.Search(context.Background(), setAsFloats(sets[q]), 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 0 || res[0].ID != int32(q) || res[0].Dist != 0 {
				t.Fatalf("shards=%d query %d: self not first: %+v", shards, q, res)
			}
			// Reported distances must equal the exact Jaccard distance,
			// and ranks must be sorted.
			for i, n := range res {
				want := 1 - exactJaccard(sets[q], sets[n.ID])
				if math.Abs(n.Dist-want) > 1e-12 {
					t.Fatalf("id %d: reported %v, exact %v", n.ID, n.Dist, want)
				}
				if i > 0 && n.Dist < res[i-1].Dist {
					t.Fatalf("unsorted results: %+v", res)
				}
			}
			// The cluster's variants are the true near neighbors; banding
			// at the default 16×8 should surface most of them.
			for _, n := range res[1:] {
				if int(n.ID) > q && int(n.ID) < q+5 {
					found++
				}
			}
		}
		// 60 clusters × up to 4 variants each; require most retrieved.
		if found < 150 {
			t.Errorf("shards=%d: only %d/240 planted variants retrieved", shards, found)
		}
		t.Logf("shards=%d: %d/240 planted variants retrieved", shards, found)
	}
}

func TestJaccardSearchPairsDedup(t *testing.T) {
	sets := jaccardCorpus(30, 4, 32, 59)
	for _, shards := range []int{1, 4} {
		ix, err := BuildSets(sets, Config{Metric: MetricJaccard, Seed: 59, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := ix.SearchPairs(context.Background(), 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			t.Fatalf("shards=%d: no pairs found in a planted-cluster corpus", shards)
		}
		seen := map[[2]int32]bool{}
		for i, p := range pairs {
			if p.I >= p.J {
				t.Fatalf("pair %d not ordered: %+v", i, p)
			}
			key := [2]int32{p.I, p.J}
			if seen[key] {
				t.Fatalf("duplicate pair %+v", p)
			}
			seen[key] = true
			want := 1 - exactJaccard(sets[p.I], sets[p.J])
			if math.Abs(p.Dist-want) > 1e-12 {
				t.Fatalf("pair %+v: exact distance %v", p, want)
			}
			if i > 0 && p.Dist < pairs[i-1].Dist {
				t.Fatalf("unsorted pairs: %+v", pairs)
			}
			// Every strong pair should be within a planted cluster.
			if p.Dist < 0.3 && p.I/4 != p.J/4 {
				t.Fatalf("cross-cluster pair %+v closer than any plant should allow", p)
			}
		}
	}
}

func TestJaccardChurnAndThreshold(t *testing.T) {
	sets := jaccardCorpus(20, 4, 24, 61)
	ix, err := BuildSets(sets, Config{
		Metric: MetricJaccard, Seed: 61, MinHashThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The threshold post-filter: every answer must have similarity
	// ≥ 0.5, i.e. distance ≤ 0.5.
	res, err := ix.Search(context.Background(), setAsFloats(sets[0]), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res {
		if n.Dist > 0.5 {
			t.Fatalf("threshold 0.5 leaked distance %v", n.Dist)
		}
	}
	// Churn: delete a base set, insert a near-duplicate of another.
	if err := ix.Delete(0); err != nil {
		t.Fatal(err)
	}
	if ix.IsLive(0) || ix.LiveLen() != len(sets)-1 {
		t.Fatalf("delete not visible: live=%d", ix.LiveLen())
	}
	dup := append([]uint64(nil), sets[4]...)
	dup[0]++ // near-duplicate of base set 4
	id, err := ix.Insert(setAsFloats(dup))
	if err != nil {
		t.Fatal(err)
	}
	res, err = ix.Search(context.Background(), setAsFloats(dup), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != id {
		t.Fatalf("inserted set not its own nearest neighbor: %+v", res)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	res2, err := ix.Search(context.Background(), setAsFloats(dup), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res) || res2[0] != res[0] {
		t.Fatalf("answers changed across Compact: %+v vs %+v", res2, res)
	}
	// Deleted ids never come back.
	for _, n := range res2 {
		if n.ID == 0 {
			t.Fatal("deleted id returned")
		}
	}
}

func TestJaccardBatchAndFilter(t *testing.T) {
	sets := jaccardCorpus(15, 4, 20, 67)
	ix, err := BuildSets(sets, Config{Metric: MetricJaccard, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{setAsFloats(sets[0]), setAsFloats(sets[5])}
	batch, err := ix.SearchBatch(context.Background(), qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		solo, err := ix.Search(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(solo) != len(batch[i]) {
			t.Fatalf("query %d: batch %d results, solo %d", i, len(batch[i]), len(solo))
		}
		for j := range solo {
			if solo[j] != batch[i][j] {
				t.Fatalf("query %d rank %d: batch %+v, solo %+v", i, j, batch[i][j], solo[j])
			}
		}
	}
	// A filter that bans the self-match must produce a different top-1.
	res, err := ix.Search(context.Background(), setAsFloats(sets[0]), 3,
		WithFilter(func(id int32) bool { return id != 0 }))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res {
		if n.ID == 0 {
			t.Fatalf("filtered id returned: %+v", res)
		}
	}
}

// TestVectorMetricSerializeRoundTrip runs the public WriteTo/Load
// round trip per metric and requires element-wise identical answers.
func TestVectorMetricSerializeRoundTrip(t *testing.T) {
	ds := testData(t, 400)
	for _, m := range []Metric{MetricCosine, MetricInnerProduct} {
		ix, err := Build(ds.Points, Config{Seed: 3, Metric: m, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metric() != m {
			t.Fatalf("loaded metric %v, want %v", got.Metric(), m)
		}
		q := ds.Points[9]
		want, err := ix.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(have) {
			t.Fatalf("%v: loaded answers %d results, original %d", m, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%v rank %d: loaded %+v, original %+v", m, i, have[i], want[i])
			}
		}
	}
}
