package core

// Core-level coverage for the metric subsystem: Config validation, the
// PLS6 envelope (round trips, corrupt metric tags, mixed-metric
// containers), metric-specific query-surface restrictions, and
// durability over non-L2 engines.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/wal"
)

// metricTestSets builds a planted-cluster set corpus: nBase base sets
// each with variants sharing most tokens, so banding has genuine
// near-duplicates to surface.
func metricTestSets(nBase, variants, setLen int, seed int64) [][]uint64 {
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
			// Resample ~10% of the tokens.
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

func tokensAsFloats(set []uint64) []float64 {
	out := make([]float64, len(set))
	for i, t := range set {
		out[i] = float64(t)
	}
	return out
}

func TestBuildRejectsUnknownMetric(t *testing.T) {
	data := clusteredData(16, 3, 2, 7)
	if _, err := Build(data, Config{Metric: metric.Kind(200)}); err == nil {
		t.Fatal("Build accepted an unknown metric")
	}
	if _, err := BuildEngine(data, Config{Metric: metric.Kind(200), Shards: 2}); err == nil {
		t.Fatal("BuildEngine accepted an unknown metric")
	}
}

func TestBuildJaccardNeedsBuildSets(t *testing.T) {
	data := clusteredData(16, 3, 2, 7)
	if _, err := Build(data, Config{Metric: metric.Jaccard}); err == nil {
		t.Fatal("Build accepted the jaccard metric")
	}
	if _, err := BuildSets([][]uint64{{1, 2}}, Config{}); err == nil {
		t.Fatal("BuildSets accepted the l2 metric")
	}
	if _, err := BuildSets(nil, Config{Metric: metric.Jaccard}); err == nil {
		t.Fatal("BuildSets accepted an empty dataset")
	}
}

func TestCosineRejectsZeroVector(t *testing.T) {
	data := clusteredData(16, 3, 2, 7)
	data[3] = []float64{0, 0}
	if _, err := Build(data, Config{Metric: metric.Cosine}); err == nil {
		t.Fatal("cosine Build accepted a zero vector")
	}
}

func TestPLS6RoundTripVectorMetrics(t *testing.T) {
	data := clusteredData(64, 4, 3, 9)
	for _, mk := range []metric.Kind{metric.Cosine, metric.InnerProduct} {
		t.Run(mk.String(), func(t *testing.T) {
			ix, err := Build(data, Config{M: 5, NumPivots: 2, Seed: 9, DistSampleSize: 32, Metric: mk})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(buf.Bytes(), []byte("PLS6")) {
				t.Fatalf("non-L2 stream not in a PLS6 envelope: %q", buf.Bytes()[:4])
			}
			got, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Metric() != mk {
				t.Fatalf("loaded metric %v, want %v", got.Metric(), mk)
			}
			if got.Dim() != len(data[0]) {
				t.Fatalf("loaded Dim %d, want %d", got.Dim(), len(data[0]))
			}
			if mk == metric.InnerProduct && got.MIPScale() != ix.MIPScale() {
				t.Fatalf("loaded scale %v, want %v", got.MIPScale(), ix.MIPScale())
			}
			q := data[11]
			want, err := ix.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(have) {
				t.Fatalf("loaded index answers %d results, original %d", len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("rank %d: loaded %+v, original %+v", i, have[i], want[i])
				}
			}
		})
	}
}

func TestPLS6RoundTripJaccard(t *testing.T) {
	sets := metricTestSets(20, 3, 24, 11)
	ix, err := BuildSets(sets, Config{Metric: metric.Jaccard, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric() != metric.Jaccard || got.Len() != len(sets) {
		t.Fatalf("loaded metric %v len %d", got.Metric(), got.Len())
	}
	q := tokensAsFloats(sets[1])
	want, err := ix.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) != len(have) {
		t.Fatalf("want %d results, have %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("rank %d: loaded %+v, original %+v", i, have[i], want[i])
		}
	}
}

func TestPLS6CorruptStreams(t *testing.T) {
	cases := map[string][]byte{
		"truncated header": []byte("PLS6"),
		"unknown tag":      {'P', 'L', 'S', '6', 0xff},
		"l2 in envelope":   {'P', 'L', 'S', '6', byte(metric.L2), 'P', 'L', 'S', '4'},
		"nested envelope":  {'P', 'L', 'S', '6', byte(metric.Cosine), 'P', 'L', 'S', '6', byte(metric.Cosine)},
	}
	for name, stream := range cases {
		if _, err := Load(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: Load accepted the stream", name)
		}
	}
}

// TestPLS6MetricTagMismatch swaps a valid cosine envelope's tag to
// inner-product: the loader must reject it (the MIP scale field is now
// missing / the rows are not an augmented layout), not serve wrong
// distances.
func TestPLS6MetricTagMismatch(t *testing.T) {
	data := clusteredData(32, 4, 2, 13)
	ix, err := Build(data, Config{M: 4, NumPivots: 2, Seed: 13, DistSampleSize: 16, Metric: metric.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	swapped := append([]byte(nil), buf.Bytes()...)
	swapped[4] = byte(metric.InnerProduct)
	if _, err := Load(bytes.NewReader(swapped)); err == nil {
		t.Fatal("Load accepted a cosine stream retagged as inner-product")
	}
}

func TestMixedMetricContainerRejected(t *testing.T) {
	data := clusteredData(32, 4, 2, 17)
	shardCfg := Config{M: 4, NumPivots: 2, Seed: 17, DistSampleSize: 16}
	l2ix, err := Build(data, shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	cosCfg := shardCfg
	cosCfg.Metric = metric.Cosine
	cosix, err := Build(data, cosCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-assemble a PLS5 container whose two shards disagree on the
	// metric; WriteTo can never produce this, so frame it manually.
	var container bytes.Buffer
	container.Write([]byte("PLS5"))
	binary.Write(&container, binary.LittleEndian, uint32(2))
	for _, shard := range []*Index{l2ix, cosix} {
		var sb bytes.Buffer
		if _, err := shard.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		binary.Write(&container, binary.LittleEndian, uint64(sb.Len()))
		container.Write(sb.Bytes())
	}
	_, err = LoadEngine(bytes.NewReader(container.Bytes()))
	if err == nil {
		t.Fatal("LoadEngine accepted a mixed-metric container")
	}
	if !strings.Contains(err.Error(), "mixed-metric") {
		t.Fatalf("want a mixed-metric error, got: %v", err)
	}
}

func TestMetricQuerySurfaceRestrictions(t *testing.T) {
	data := clusteredData(32, 4, 2, 19)
	mip, err := Build(data, Config{M: 4, NumPivots: 2, Seed: 19, DistSampleSize: 16, Metric: metric.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mip.SearchBall(context.Background(), data[0], 0.5, SearchOptions{C: 1.5}); err == nil {
		t.Error("SearchBall accepted the inner-product metric")
	}
	if _, err := mip.SearchPairs(context.Background(), 3, SearchOptions{C: 1.5}); err == nil {
		t.Error("SearchPairs accepted the inner-product metric")
	}
	if _, err := mip.DeriveParams(1.5); err != nil {
		t.Errorf("DeriveParams should work on the internal L2 space: %v", err)
	}

	sets := metricTestSets(10, 2, 16, 19)
	jac, err := BuildSets(sets, Config{Metric: metric.Jaccard, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jac.DeriveParams(1.5); err == nil {
		t.Error("DeriveParams answered for a jaccard index")
	}
	if err := jac.SetQuantize(1); err == nil {
		t.Error("SetQuantize answered for a jaccard index")
	}
	if _, err := jac.Search(context.Background(), []float64{1.5}, 3, SearchOptions{C: 1.5}); err == nil {
		t.Error("jaccard Search accepted a non-integer token")
	}
	if _, err := jac.Search(context.Background(), []float64{-3}, 3, SearchOptions{C: 1.5}); err == nil {
		t.Error("jaccard Search accepted a negative token")
	}
}

// TestCosineSearchBall checks the radius mapping: the native cosine
// radius r maps to the internal chord radius sqrt(2r), and the
// returned distance is native.
func TestCosineSearchBall(t *testing.T) {
	data := clusteredData(64, 8, 3, 23)
	ix, err := Build(data, Config{M: 6, NumPivots: 2, Seed: 23, DistSampleSize: 32, Metric: metric.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	// Query at an indexed point: distance 0 is within any radius.
	res, err := ix.SearchBall(context.Background(), data[5], 0.05, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("SearchBall found nothing at an indexed point")
	}
	if res.Dist > 0.05*1.5+1e-12 {
		t.Fatalf("SearchBall returned dist %v beyond c·r", res.Dist)
	}
}

func TestEngineMetricUniform(t *testing.T) {
	data := clusteredData(48, 4, 2, 29)
	e, err := BuildEngine(data, Config{M: 4, NumPivots: 2, Seed: 29, DistSampleSize: 16, Metric: metric.Cosine, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Metric() != metric.Cosine || e.Info().Metric != metric.Cosine {
		t.Fatalf("engine metric %v / info %v", e.Metric(), e.Info().Metric)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric() != metric.Cosine {
		t.Fatalf("loaded engine metric %v", got.Metric())
	}
	q := data[7]
	want, err := e.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("rank %d: loaded %+v, original %+v", i, have[i], want[i])
		}
	}
}

// TestMIPGlobalScaleAcrossShards pins the property that makes sharded
// MIP correct: every shard must share the build-global norm bound S,
// or cross-shard merges would compare incomparable distances.
func TestMIPGlobalScaleAcrossShards(t *testing.T) {
	data := clusteredData(60, 4, 3, 31)
	// Give one point a dominating norm aligned with the query so a
	// per-shard S would differ and the true best answer is known.
	for j := range data[17] {
		data[17][j] = 50 * data[3][j]
	}
	single, err := BuildEngine(data, Config{M: 4, NumPivots: 2, Seed: 31, DistSampleSize: 16, Metric: metric.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildEngine(data, Config{M: 4, NumPivots: 2, Seed: 31, DistSampleSize: 16, Metric: metric.InnerProduct, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := data[3]
	want, err := single.Search(context.Background(), q, 1, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	have, err := sharded.Search(context.Background(), q, 1, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// The dominating-norm point is the best inner product for any
	// non-adversarial query; both layouts must find it with the same
	// native distance.
	if len(want) != 1 || len(have) != 1 || want[0].ID != 17 || have[0].ID != 17 {
		t.Fatalf("want id 17 from both: single %+v sharded %+v", want, have)
	}
	if math.Abs(want[0].Dist-have[0].Dist) > 1e-9*math.Abs(want[0].Dist) {
		t.Fatalf("native distance differs across layouts: %v vs %v", want[0].Dist, have[0].Dist)
	}
}

func TestJaccardDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sets := metricTestSets(15, 3, 20, 37)
	e, err := BuildSetsEngine(sets, Config{Metric: metric.Jaccard, Seed: 37, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	gid, err := e.Insert(tokensAsFloats(sets[0])) // a duplicate of set 0
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	q := tokensAsFloats(sets[0])
	want, err := e.Search(context.Background(), q, 4, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseDurable()
	if e2.Metric() != metric.Jaccard {
		t.Fatalf("recovered metric %v", e2.Metric())
	}
	if e2.IsLive(2) || !e2.IsLive(gid) {
		t.Fatalf("recovered live set wrong: IsLive(2)=%v IsLive(%d)=%v", e2.IsLive(2), gid, e2.IsLive(gid))
	}
	have, err := e2.Search(context.Background(), q, 4, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(have) {
		t.Fatalf("recovered answers %d results, original %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("rank %d: recovered %+v, original %+v", i, have[i], want[i])
		}
	}
}

// TestCosineDurableReplay crashes (skips the checkpoint) after logged
// mutations and verifies replay reconstructs the cosine engine — the
// WAL's float rows are reduced rows' native inputs, so replay must
// re-apply the same reduction deterministically.
func TestCosineDurableReplay(t *testing.T) {
	dir := t.TempDir()
	data := clusteredData(40, 4, 2, 41)
	e, err := BuildEngine(data, Config{M: 4, NumPivots: 2, Seed: 41, DistSampleSize: 16, Metric: metric.Cosine, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert([]float64{3, -1, 2, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	q := data[9]
	want, err := e.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// No CloseDurable: simulate a crash with the mutations only in the
	// log, then recover.
	e2, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseDurable()
	if e2.Metric() != metric.Cosine {
		t.Fatalf("recovered metric %v", e2.Metric())
	}
	have, err := e2.Search(context.Background(), q, 5, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(have) {
		t.Fatalf("recovered answers %d results, original %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("rank %d: recovered %+v, original %+v", i, have[i], want[i])
		}
	}
}

// TestJaccardSearchPairsVsOracle is the engine-level home of what the
// minhash package's SearchPairs tests checked before the band join
// moved here for every shard count (PR 19): shape and exactness of the
// reported pairs against planted near-duplicates, the (dist, I, J)
// order, the threshold cut, the filter on both ids, the budget stop,
// and a k far beyond anything the index holds.
func TestJaccardSearchPairsVsOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	const n, vocab = 120, 4000
	sets := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		s := make([]uint64, 50)
		for j := range s {
			s[j] = uint64(rng.Intn(vocab))
		}
		sets = append(sets, s)
	}
	// Plant 10 near-duplicate pairs with one to four of the 50 tokens
	// replaced (similarity ≈ 0.96 down to 0.85, on both sides of the
	// 0.9 threshold below).
	var plants [][2]int32
	for p := 0; p < 10; p++ {
		src := rng.Intn(n)
		dup := append([]uint64(nil), sets[src]...)
		for i := 0; i <= p%4; i++ {
			dup[rng.Intn(len(dup))] = uint64(rng.Intn(vocab))
		}
		sets = append(sets, dup)
		plants = append(plants, [2]int32{int32(src), int32(len(sets) - 1)})
	}
	canon := make([][]uint64, len(sets))
	for i, s := range sets {
		var err error
		if canon[i], err = minhash.Canonicalize(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 3} {
		e, err := BuildSetsEngine(sets, Config{Metric: metric.Jaccard, Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var st CPStats
		pairs, err := e.SearchPairs(ctx, 2*len(plants), SearchOptions{PairStats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != 1 || st.Enumerated < len(pairs) || st.Verified != st.Enumerated {
			t.Fatalf("shards=%d: implausible stats %+v for %d pairs", shards, st, len(pairs))
		}
		seen := make(map[[2]int32]bool)
		for i, p := range pairs {
			if p.I >= p.J {
				t.Fatalf("shards=%d: pair %d not ordered: (%d,%d)", shards, i, p.I, p.J)
			}
			key := [2]int32{p.I, p.J}
			if seen[key] {
				t.Fatalf("shards=%d: pair (%d,%d) reported twice", shards, p.I, p.J)
			}
			seen[key] = true
			if i > 0 && pairLess(p, pairs[i-1]) {
				t.Fatalf("shards=%d: pairs %d and %d out of (dist, I, J) order", shards, i-1, i)
			}
			if want := 1 - minhash.Jaccard(canon[p.I], canon[p.J]); p.Dist != want {
				t.Fatalf("shards=%d: pair dist %v, exact says %v", shards, p.Dist, want)
			}
		}
		hit := 0
		for _, pl := range plants {
			if seen[pl] {
				hit++
			}
		}
		if hit < len(plants)-1 {
			t.Fatalf("shards=%d: found only %d/%d planted pairs", shards, hit, len(plants))
		}

		// Filter: a pair is admitted only when both ids are.
		even, err := e.SearchPairs(ctx, 2*len(plants), SearchOptions{Filter: evenIDs})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range even {
			if p.I%2 != 0 || p.J%2 != 0 {
				t.Fatalf("shards=%d: filter leaked pair (%d,%d)", shards, p.I, p.J)
			}
		}
		// Budget caps exact rescores.
		if _, err := e.SearchPairs(ctx, 5, SearchOptions{Budget: 3, PairStats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.Verified != 3 || st.Enumerated <= 3 {
			t.Fatalf("shards=%d: budget 3 left stats %+v", shards, st)
		}
		// A k beyond anything the index holds sizes no allocation: it
		// answers like k = every candidate pair.
		all, err := e.SearchPairs(ctx, 1<<40, SearchOptions{})
		if err != nil || len(all) < len(pairs) {
			t.Fatalf("shards=%d: SearchPairs(k=1<<40): %d pairs, err %v", shards, len(all), err)
		}

		// Threshold: pairs below the similarity floor are cut after the
		// rescore.
		th, err := BuildSetsEngine(sets, Config{Metric: metric.Jaccard, Seed: 5, Shards: shards, MinHashThreshold: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		cut, err := th.SearchPairs(ctx, 1<<40, SearchOptions{})
		if err != nil || len(cut) == 0 || len(cut) >= len(all) {
			t.Fatalf("shards=%d: threshold 0.9 kept %d of %d pairs, err %v", shards, len(cut), len(all), err)
		}
		for _, p := range cut {
			if p.Dist > 0.1+1e-12 {
				t.Fatalf("shards=%d: threshold 0.9 leaked distance %v", shards, p.Dist)
			}
		}
	}
}
