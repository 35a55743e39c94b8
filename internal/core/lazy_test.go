package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// bulkLoads returns the bulk loads each shard's current generation has
// run (pmtree.Tree.BulkLoads: the writer's tree and every view of one
// generation share the count).
func bulkLoads(t *testing.T, e *Engine) []int {
	t.Helper()
	out := make([]int, len(e.shards))
	for s, ix := range vecs(e) {
		out[s] = ix.view.Load().tree.BulkLoads()
		if w := ix.tree.BulkLoads(); w != out[s] {
			t.Fatalf("shard %d: the writer's tree counts %d bulk loads, its view %d", s, w, out[s])
		}
	}
	return out
}

// TestKNNNeverBulkLoads: a k-NN query reads the projected rows, never
// the PM-tree's structure, and a snapshot stores the rows, not the tree,
// so no step of a serving life without a ball or pair query — a fresh
// build, Search, SearchBatch, a multi-shard fan-out of both, Insert,
// Delete, Compact and the compactions Insert and Delete trigger,
// WriteTo, EnableDurability, CheckpointDurable, and the engines LoadEngine
// and OpenDurable make of what they wrote — pays the tree's bulk load.
// The first SearchBall afterwards does, once per shard: nothing had
// loaded the tree before it.
func TestKNNNeverBulkLoads(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		data := clusteredData(1200, 12, 8, 41)
		e, err := BuildEngine(data, Config{Shards: shards, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string, engines ...*Engine) {
			t.Helper()
			for _, eng := range append(engines, e) {
				if got := bulkLoads(t, eng); slices.Max(got) != 0 {
					t.Fatalf("shards=%d: after %s the shards' trees ran %v bulk loads", shards, step, got)
				}
			}
		}
		check("Build")
		queries := data[:16]
		for _, q := range queries {
			if _, err := e.Search(ctx, q, 10, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.SearchBatch(ctx, queries, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		check("Search and SearchBatch")

		rng := rand.New(rand.NewSource(43))
		compactions := func() int64 { return e.Info().Compactions }
		for _, p := range randData(700, 12, 44) { // past the 30% tail share on every shard
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		afterInserts := compactions()
		for deleted := 0; deleted < 900; {
			if id := int32(rng.Intn(e.Len())); e.IsLive(id) {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
				deleted++
			}
		}
		if afterInserts == 0 || compactions() == afterInserts {
			t.Fatalf("shards=%d: %d compactions on inserts, %d on deletes; the schedule must trigger both",
				shards, afterInserts, compactions()-afterInserts)
		}
		check("Insert and Delete with their compactions")
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SearchBatch(ctx, queries, 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		check("Compact")

		var saved bytes.Buffer
		if _, err := e.WriteTo(&saved); err != nil {
			t.Fatal(err)
		}
		fs := wal.DirFS(t.TempDir())
		if err := e.EnableDurability(fs, wal.SyncPolicy{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(data[1]); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckpointDurable(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(data[2]); err != nil {
			t.Fatal(err)
		}
		if err := e.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		check("WriteTo, EnableDurability and CheckpointDurable")
		loaded, err := LoadEngine(&saved)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenDurable(fs, wal.SyncPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer recovered.CloseDurable()
		for _, eng := range []*Engine{loaded, recovered} {
			if _, err := eng.SearchBatch(ctx, queries, 10, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		check("LoadEngine, OpenDurable and their Searches", loaded, recovered)

		for _, ix := range vecs(e) {
			if _, err := ix.SearchBall(ctx, data[0], 0.01, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for s, n := range bulkLoads(t, e) {
			if n != 1 {
				t.Fatalf("shards=%d: shard %d ran %d bulk loads for its first SearchBall, want 1", shards, s, n)
			}
		}
	}
}

// TestFirstUseBulkLoadsOnce races the first SearchBall and SearchPairs
// of a generation on eight goroutines, beside WriteTo and a mutator (run
// under -race): the generation is bulk loaded exactly once, the views
// the mutator publishes afterwards share that load, and a Compact starts
// a generation of its own, loaded again on first use — which a WriteTo
// is not.
func TestFirstUseBulkLoadsOnce(t *testing.T) {
	ctx := context.Background()
	data := clusteredData(1500, 12, 8, 51)
	extra := randData(200, 12, 52)
	e, err := BuildEngine(data, Config{Shards: 2, Seed: 53, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch g % 3 {
			case 0:
				_, errs[g] = e.SearchBall(ctx, data[g], 0.05, SearchOptions{})
			case 1:
				_, errs[g] = e.SearchPairs(ctx, 5, SearchOptions{})
			default:
				_, errs[g] = e.WriteTo(&bytes.Buffer{})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i, p := range extra {
			if _, err := e.Insert(p); err != nil {
				errs[8] = err
				return
			}
			if err := e.Delete(int32(3 * i)); err != nil {
				errs[8] = err
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := bulkLoads(t, e); got[0] != 1 || got[1] != 1 {
		t.Fatalf("racing first uses ran %v bulk loads per shard, want 1 each", got)
	}
	// Later views of the generation reuse the load.
	for _, p := range extra[:20] {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SearchPairs(ctx, 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := bulkLoads(t, e); got[0] != 1 || got[1] != 1 {
		t.Fatalf("a later view of the generation: %v bulk loads per shard, want 1 each", got)
	}
	old := vecs(e)[0].view.Load().tree
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := bulkLoads(t, e); got[0] != 0 || got[1] != 0 {
		t.Fatalf("Compact: the new generation ran %v bulk loads, want none before first use", got)
	}
	if _, err := e.WriteTo(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := bulkLoads(t, e); got[0] != 0 || got[1] != 0 {
		t.Fatalf("a WriteTo after Compact ran %v bulk loads per shard, want none", got)
	}
	if _, err := e.SearchPairs(ctx, 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := bulkLoads(t, e); got[0] != 1 || got[1] != 1 || old.BulkLoads() != 1 {
		t.Fatalf("after Compact and a SearchPairs: %v bulk loads per shard (the old generation %d), want 1 each",
			got, old.BulkLoads())
	}
}

// TestLazyTreeAnswersLikeEager: a tree bulk loaded on first use, after
// churn, is the tree a load at build time gives — ball, pair and range
// answers with their statistics, and the index's bytes, are equal.
func TestLazyTreeAnswersLikeEager(t *testing.T) {
	ctx := context.Background()
	data := clusteredData(1500, 12, 8, 61)
	for _, shards := range []int{1, 3} {
		churned := func(eager bool) *Engine {
			e, err := BuildEngine(data, Config{Shards: shards, Seed: 62, AutoCompactFraction: -1})
			if err != nil {
				t.Fatal(err)
			}
			if eager {
				for _, ix := range vecs(e) {
					ix.tree.ScanRadius()
				}
			}
			rng := rand.New(rand.NewSource(63))
			for i, p := range randData(300, 12, 64) {
				if i%3 == 0 { // a near-duplicate, so balls and pairs find the tail
					src := data[rng.Intn(len(data))]
					for j := range p {
						p[j] = src[j] + 1e-3*rng.NormFloat64()
					}
				}
				if _, err := e.Insert(p); err != nil {
					t.Fatal(err)
				}
				if id := int32(rng.Intn(len(data))); e.IsLive(id) {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			return e
		}
		lazy, eager := churned(false), churned(true)
		if got := bulkLoads(t, lazy); slices.Max(got) != 0 {
			t.Fatalf("shards=%d: churn loaded the lazy engine's trees: %v", shards, got)
		}
		for qi, q := range data[:40] {
			label := fmt.Sprintf("shards=%d query %d", shards, qi)
			for _, r := range []float64{0.01, 0.5, 3} {
				var sa, sb QueryStats
				ga, err := lazy.SearchBall(ctx, q, r, SearchOptions{Stats: &sa})
				if err != nil {
					t.Fatal(err)
				}
				gb, err := eager.SearchBall(ctx, q, r, SearchOptions{Stats: &sb})
				if err != nil {
					t.Fatal(err)
				}
				if (ga == nil) != (gb == nil) || (ga != nil && *ga != *gb) || sa != sb {
					t.Fatalf("%s: SearchBall(%v) = %v %+v lazily, %v %+v eagerly", label, r, ga, sa, gb, sb)
				}
			}
			for s := range lazy.shards {
				qp := vecs(lazy)[s].Project(q)
				for _, r := range []float64{0.5, 5} {
					ra, err := vecs(lazy)[s].Tree().RangeSearch(qp, r)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := vecs(eager)[s].Tree().RangeSearch(qp, r)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(ra, rb) {
						t.Fatalf("%s shard %d: RangeSearch(%v) found %d points lazily, %d eagerly, or others", label, s, r, len(ra), len(rb))
					}
				}
			}
		}
		for _, k := range []int{1, 20} {
			var sa, sb CPStats
			pa, err := lazy.SearchPairs(ctx, k, SearchOptions{PairStats: &sa})
			if err != nil {
				t.Fatal(err)
			}
			pb, err := eager.SearchPairs(ctx, k, SearchOptions{PairStats: &sb})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(pa, pb, func(a, b Pair) bool {
				return a.I == b.I && a.J == b.J && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
			}) || sa != sb {
				t.Fatalf("shards=%d k=%d: SearchPairs %v %+v lazily, %v %+v eagerly", shards, k, pa, sa, pb, sb)
			}
		}
		if !bytes.Equal(engineBytes(t, lazy), engineBytes(t, eager)) {
			t.Fatalf("shards=%d: the lazily and eagerly loaded engines serialize differently", shards)
		}
	}
}

// TestKNNFirstRadiusAboveSwitch answers whether a default-budget k-NN
// query would ever traverse the tree, which is why Search is the flat
// pass alone: at n = 20 000 and 100 000, d = 128 (the knn-d128 shape),
// the first projected radius t·r_min of 200 queries — recovered from
// each one's statistics — is at or above the switch radius of the tree
// bulk loaded over the same rows. README's "Scan when the tree cannot
// prune" quotes the ratio it logs.
func TestKNNFirstRadiusAboveSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100 000-row index")
	}
	ctx := context.Background()
	for _, n := range []int{20000, 100000} {
		ds, err := dataset.Generate(dataset.Spec{Name: "switch", N: n, D: 128, SubspaceDim: 12, RCTarget: 2.0, Seed: 7919})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(ds.Points, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		params, err := ix.DeriveParams(DefaultC)
		if err != nil {
			t.Fatal(err)
		}
		switchRadius := ix.Tree().ScanRadius()
		lo, hi := math.Inf(1), 0.0
		for qi, q := range ds.Queries(200, 3) {
			var st QueryStats
			if _, err := ix.Search(ctx, q, 50, SearchOptions{Stats: &st}); err != nil {
				t.Fatal(err)
			}
			ratio := params.T * st.FinalRadius / math.Pow(DefaultC, float64(st.Rounds-1)) / switchRadius
			if ratio < 1 {
				t.Fatalf("n=%d query %d: first projected radius %.3f × the switch radius %v", n, qi, ratio, switchRadius)
			}
			lo, hi = min(lo, ratio), max(hi, ratio)
		}
		t.Logf("n=%d: first projected radius %.2f–%.2f × the switch radius", n, lo, hi)
	}
}
