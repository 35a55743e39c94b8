package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pmtree"
	"repro/internal/store"
	"repro/internal/wal"
)

// rebuildTree replaces ix's tree with a fresh bulk load over its live
// points — what Compact does to the tree, leaving the vector store, the
// id map and the distance sample alone, so that the only difference to
// the index it was is "leaves only" against "leaves, tail and dead
// marks".
func rebuildTree(t *testing.T, ix *Index) {
	t.Helper()
	fresh, err := store.New(ix.dim)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for id := int32(0); int(id) < ix.Len(); id++ {
		if ix.IsLive(id) {
			if _, err := fresh.Append(ix.point(id)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	projected, err := ix.proj.ProjectStore(fresh)
	if err != nil {
		t.Fatal(err)
	}
	ix.tree, err = pmtree.BuildFromStore(projected, ids, pmtree.Config{
		Capacity: ix.cfg.Capacity, NumPivots: ix.cfg.NumPivots, PivotSeed: ix.cfg.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.republish()
}

// rebuiltCopy returns e's serialization clone with every shard's tree
// rebuilt.
func rebuiltCopy(t *testing.T, e *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range ref.shards {
		rebuildTree(t, ix)
		if ix.tailFraction() != 0 {
			t.Fatal("a rebuilt tree has a tail")
		}
	}
	return ref
}

// TestChurnedAnswersLikeRebuilt is the index-level half of the frozen
// tree's oracle (pmtree's TestTailAnswersLikeRebuilt is the other): an
// engine whose trees carry a tail and dead marks answers Search,
// SearchBall and SearchPairs exactly like the same engine with every
// tree bulk loaded afresh — ids, distance bits and every statistic but
// the projected evaluations, which count the rows each tree holds.
func TestChurnedAnswersLikeRebuilt(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		data := clusteredData(1200, 16, 12, 81)
		e, err := BuildEngine(data, Config{Shards: shards, Seed: 82, AutoCompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Inserts past the 30% at which the default configuration would have
		// compacted, a third of them near-duplicates of live points so that
		// ball and pair queries have something to find in the tail, and
		// deletes from the built rows and the inserted ones alike.
		rng := rand.New(rand.NewSource(83))
		extra := clusteredData(540, 16, 12, 84)
		for i, p := range extra {
			if i%3 == 0 {
				src := data[rng.Intn(len(data))]
				for j := range p {
					p[j] = src[j] + rng.NormFloat64()*1e-3
				}
			}
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if victim := int32(rng.Intn(len(data) + i)); e.IsLive(victim) {
					if err := e.Delete(victim); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for s, f := range e.Info().TailFraction {
			if f < 0.3 {
				t.Fatalf("shards=%d: shard %d has tail fraction %v, want past 0.3", shards, s, f)
			}
		}
		ref := rebuiltCopy(t, e)

		for qi := 0; qi < 30; qi++ {
			q := extra[rng.Intn(len(extra))]
			if qi%3 == 0 {
				q = data[rng.Intn(len(data))]
			}
			label := fmt.Sprintf("shards=%d query %d", shards, qi)
			var sa, sb QueryStats
			got, err := e.Search(ctx, q, 1+qi, SearchOptions{Stats: &sa})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Search(ctx, q, 1+qi, SearchOptions{Stats: &sb})
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, label+" Search", got, want)
			sa.ProjectedDistComps, sb.ProjectedDistComps = 0, 0
			if sa != sb {
				t.Fatalf("%s: Search did %+v on the churned engine, %+v on the rebuilt one", label, sa, sb)
			}

			for _, r := range []float64{0.01, 2} {
				gb, err := e.SearchBall(ctx, q, r, SearchOptions{Stats: &sa})
				if err != nil {
					t.Fatal(err)
				}
				wb, err := ref.SearchBall(ctx, q, r, SearchOptions{Stats: &sb})
				if err != nil {
					t.Fatal(err)
				}
				if (gb == nil) != (wb == nil) || (gb != nil && (gb.ID != wb.ID || math.Float64bits(gb.Dist) != math.Float64bits(wb.Dist))) {
					t.Fatalf("%s: SearchBall(%v) = %+v on the churned engine, %+v on the rebuilt one", label, r, gb, wb)
				}
				sa.ProjectedDistComps, sb.ProjectedDistComps = 0, 0
				if sa != sb {
					t.Fatalf("%s: SearchBall(%v) did %+v on the churned engine, %+v on the rebuilt one", label, r, sa, sb)
				}
			}
		}
		for _, k := range []int{1, 10, 60} {
			var sa, sb CPStats
			got, err := e.SearchPairs(ctx, k, SearchOptions{PairStats: &sa})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SearchPairs(ctx, k, SearchOptions{PairStats: &sb})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d k=%d: %d pairs, the rebuilt engine finds %d", shards, k, len(got), len(want))
			}
			for i := range got {
				if got[i].I != want[i].I || got[i].J != want[i].J || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("shards=%d k=%d: pair %d = %+v, the rebuilt engine finds %+v", shards, k, i, got[i], want[i])
				}
			}
			sa.ProjectedDistComps, sb.ProjectedDistComps = 0, 0
			if sa != sb {
				t.Fatalf("shards=%d k=%d: SearchPairs did %+v on the churned engine, %+v on the rebuilt one", shards, k, sa, sb)
			}
		}
	}
}

// TestInsertCompactsOnTail pins the insert-side trigger: the index
// compacts at the insert that brings the tail to AutoCompactFraction of
// the tree's rows and not before, AutoCompactAlways means the default
// fraction here, and a negative fraction never compacts.
func TestInsertCompactsOnTail(t *testing.T) {
	data := randData(200, 8, 91)
	extra := randData(300, 8, 92)
	for _, tc := range []struct {
		fraction float64
		at       []int // the inserts (1-based) that compact
	}{
		{0, []int{86}}, // 86/286 is the first tail share >= 0.3
		{AutoCompactAlways, []int{86}},
		{0.1, []int{23, 48, 76}}, // 23/223, then 25/248, then 28/276
		{-1, nil},
	} {
		ix, err := Build(data, Config{Seed: 93, AutoCompactFraction: tc.fraction})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for i := 1; i <= 100; i++ {
			if _, err := ix.Insert(extra[i]); err != nil {
				t.Fatal(err)
			}
			compacts := int(want) < len(tc.at) && tc.at[want] == i
			if compacts {
				want++
			}
			if got := ix.compactions(); got != want {
				t.Fatalf("fraction %v: %d compactions after %d inserts, want %d", tc.fraction, got, i, want)
			}
			if compacts && ix.tailFraction() != 0 {
				t.Fatalf("fraction %v: tail fraction %v right after the compaction", tc.fraction, ix.tailFraction())
			}
		}
		if ix.LiveLen() != 300 {
			t.Fatalf("fraction %v: %d live points, want 300", tc.fraction, ix.LiveLen())
		}
	}

	// From an index compacted empty, every insert compacts until there are
	// rows for a tail to be a small share of.
	ix, err := Build(data[:3], Config{Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 3; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if ix.LiveLen() != 0 || ix.tailFraction() != 0 {
		t.Fatalf("emptied index: %d live, tail fraction %v", ix.LiveLen(), ix.tailFraction())
	}
	for i := 0; i < 50; i++ {
		if _, err := ix.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
		if f := ix.tailFraction(); f >= DefaultAutoCompactFraction {
			t.Fatalf("tail fraction %v after insert %d", f, i)
		}
	}
	res, err := ix.Search(context.Background(), extra[7], 1, SearchOptions{})
	if err != nil || len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("regrown index: %+v, %v", res, err)
	}
}

// TestRecoveredShardCompactsAtTheSameInsert: a checkpoint carries each
// shard's tail exactly, so an engine recovered from checkpoint and log
// reaches the insert-side trigger at the same insert as one that never
// stopped, and ends in the same state, byte for byte.
func TestRecoveredShardCompactsAtTheSameInsert(t *testing.T) {
	data := randData(120, 6, 95)
	extra := randData(80, 6, 96)
	build := func() *Engine {
		e, err := BuildEngine(data, Config{Seed: 97, Shards: 2, DistSampleSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	steady, crashed := build(), build()
	fs := wal.DirFS(t.TempDir())
	if err := crashed.EnableDurability(fs, wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	tails := func(e *Engine) string { return fmt.Sprint(e.Info().TailFraction) }
	compactedAt := -1
	for i, p := range extra {
		switch i {
		case 20: // a checkpoint that holds 10 tail rows per shard
			if err := crashed.CheckpointDurable(); err != nil {
				t.Fatal(err)
			}
		case 30: // stop; recover from the checkpoint plus 10 logged inserts
			if err := crashed.CloseDurable(); err != nil {
				t.Fatal(err)
			}
			var err error
			if crashed, err = OpenDurable(fs, wal.SyncPolicy{}); err != nil {
				t.Fatal(err)
			}
		}
		a, err := steady.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := crashed.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || tails(steady) != tails(crashed) {
			t.Fatalf("insert %d: ids %d and %d, tail fractions %s and %s", i, a, b, tails(steady), tails(crashed))
		}
		if compactedAt < 0 && steady.Info().Compactions > 0 {
			compactedAt = i
		}
	}
	if compactedAt <= 30 {
		t.Fatalf("first auto-compaction at insert %d; the test needs it after the recovery at 30", compactedAt)
	}
	defer crashed.CloseDurable()
	var sa, sb bytes.Buffer
	if _, err := steady.WriteTo(&sa); err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("the recovered engine and the one that never stopped ended in different states")
	}
}
