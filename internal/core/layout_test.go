package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// tailFractions returns every shard's tail fraction.
func tailFractions(t *testing.T, tag string, e *Engine) []float64 {
	t.Helper()
	out := e.Info().TailFraction
	if len(out) != len(e.shards) {
		t.Fatalf("%s: Info reports %d tail fractions for %d shards", tag, len(out), len(e.shards))
	}
	return out
}

// TestLeafLayoutThroughLifecycle follows the tree's two parts — the
// rows under leaves, fixed at the bulk load, and the tail — through an
// engine's life. A built shard starts with no tail; inserts grow it; a
// churned engine and its reload hold the same trees, tail and dead rows
// included, and answer alike — results and every statistic; and Compact
// folds the tail in.
func TestLeafLayoutThroughLifecycle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		data := randData(900, 12, 21)
		e, err := BuildEngine(data, Config{Shards: shards, Seed: 5, AutoCompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		for s, f := range tailFractions(t, "built", e) {
			if f != 0 {
				t.Fatalf("shards=%d: built shard %d has tail fraction %v, want 0", shards, s, f)
			}
		}
		if info := e.Info(); len(info.TailFraction) != shards {
			t.Fatalf("Info reports %d tail fractions for %d shards", len(info.TailFraction), shards)
		}

		rng := rand.New(rand.NewSource(22))
		extra := randData(150, 12, 23)
		for i, p := range extra {
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				victim := int32(rng.Intn(len(data)))
				if e.IsLive(victim) {
					if err := e.Delete(victim); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Inserts go round the shards: 150/shards land in each tail, behind
		// the 900/shards rows it was built over.
		worn := tailFractions(t, "churned", e)
		for s, f := range worn {
			if want := float64(150/shards) / float64(1050/shards); f != want {
				t.Fatalf("shards=%d: churned shard %d has tail fraction %v, want %v", shards, s, f, want)
			}
		}

		var stream bytes.Buffer
		if _, err := e.WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadEngine(&stream)
		if err != nil {
			t.Fatal(err)
		}
		for s, f := range tailFractions(t, "reloaded", reloaded) {
			if f != worn[s] {
				t.Fatalf("shards=%d: reloaded shard %d has tail fraction %v, saved with %v", shards, s, f, worn[s])
			}
		}
		var again bytes.Buffer
		if _, err := reloaded.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := e.WriteTo(&stream); err != nil { // LoadEngine drained it
			t.Fatal(err)
		}
		if !bytes.Equal(stream.Bytes(), again.Bytes()) {
			t.Fatalf("shards=%d: a churned engine and its reload serialize differently", shards)
		}
		for qi := 0; qi < 40; qi++ {
			q := data[rng.Intn(len(data))]
			if qi%2 == 1 {
				q = extra[rng.Intn(len(extra))]
			}
			var sa, sb QueryStats
			got, err := e.Search(context.Background(), q, 20, SearchOptions{C: 1.5, Stats: &sa})
			if err != nil {
				t.Fatal(err)
			}
			want, err := reloaded.Search(context.Background(), q, 20, SearchOptions{C: 1.5, Stats: &sb})
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "churned vs reloaded", got, want)
			if sa != sb {
				t.Fatalf("shards=%d query %d: the churned engine did %+v, its reload %+v", shards, qi, sa, sb)
			}
		}

		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		for s, f := range tailFractions(t, "compacted", e) {
			if f != 0 {
				t.Fatalf("shards=%d: compacted shard %d has tail fraction %v, want 0", shards, s, f)
			}
		}
	}
}

// TestScanSwitchFollowsRadius pins which way a query resolves its
// projected radius, as its statistics show it: a Search at the default
// budget starts at the radius that holds βn+k points, far above the
// tree's switch radius, and pays exactly one pass over the tree's rows;
// a SearchBall at a near-duplicate radius stays on the traversal and
// pays a small part of that.
func TestScanSwitchFollowsRadius(t *testing.T) {
	data := clusteredData(4000, 24, 8, 61)
	ix, err := Build(data, Config{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(ix.tree.Rows())
	rng := rand.New(rand.NewSource(63))
	for qi := 0; qi < 10; qi++ {
		q := data[rng.Intn(len(data))]
		var st QueryStats
		if _, err := ix.Search(context.Background(), q, 10, SearchOptions{Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.ProjectedDistComps != rows {
			t.Fatalf("query %d: Search paid %d projected evaluations, the tree has %d rows", qi, st.ProjectedDistComps, rows)
		}
		got, err := ix.SearchBall(context.Background(), q, 1e-3, SearchOptions{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Dist != 0 {
			t.Fatalf("query %d: SearchBall around a stored point returned %+v", qi, got)
		}
		if st.ProjectedDistComps >= rows/4 {
			t.Fatalf("query %d: near-duplicate SearchBall paid %d projected evaluations over %d rows", qi, st.ProjectedDistComps, rows)
		}
	}
}
