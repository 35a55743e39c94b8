package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// halvesAgree fails unless both halves of every shard report the same
// tail fraction and hold the same tree, and returns the per-shard
// fraction they agree on.
func halvesAgree(t *testing.T, tag string, e *Engine) []float64 {
	t.Helper()
	out := make([]float64, len(e.shards))
	for s, sh := range e.shards {
		a, b := sh.halves[0].ix, sh.halves[1].ix
		if a.TailFraction() != b.TailFraction() {
			t.Fatalf("%s: shard %d halves report tail fractions %v and %v",
				tag, s, a.TailFraction(), b.TailFraction())
		}
		var ab, bb bytes.Buffer
		if _, err := a.Tree().WriteTo(&ab); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Tree().WriteTo(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: shard %d halves hold different trees", tag, s)
		}
		out[s] = a.TailFraction()
	}
	return out
}

// TestLeafLayoutThroughLifecycle follows the tree's two parts — the
// rows under leaves, fixed at the bulk load, and the tail — through an
// engine's life. A built half and its serialization clone start with
// no tail; mutations grow both halves' tails in step; a churned engine
// and its reload hold the same trees, tail and dead marks included, and
// answer alike — results and every statistic; and Compact folds the
// tail in.
func TestLeafLayoutThroughLifecycle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		data := randData(900, 12, 21)
		e, err := BuildEngine(data, Config{Shards: shards, Seed: 5, AutoCompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		for s, f := range halvesAgree(t, "built", e) {
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
		worn := halvesAgree(t, "churned", e)
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
		for s, f := range halvesAgree(t, "reloaded", reloaded) {
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
		for s, f := range halvesAgree(t, "compacted", e) {
			if f != 0 {
				t.Fatalf("shards=%d: compacted shard %d has tail fraction %v, want 0", shards, s, f)
			}
		}
	}
}

// TestStreamSizeHint keeps cloneIndex's one allocation honest: the hint
// must cover the stream (or the buffer regrows, copying everything)
// without overshooting it by more than its fixed slack.
func TestStreamSizeHint(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 3},
		{Seed: 3, ExplicitZeroPivots: true, Capacity: 6},
	} {
		ix, err := Build(randData(700, 20, 31), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tag string) {
			t.Helper()
			var buf bytes.Buffer
			n, err := ix.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if hint := int64(streamSizeHint(ix)); hint < n || hint > n+1024 {
				t.Fatalf("%s %+v: hint %d for a %d-byte stream", tag, cfg, hint, n)
			}
		}
		check("built")
		for id := int32(0); id < 60; id++ {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range randData(25, 20, 32) {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		check("churned")
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
