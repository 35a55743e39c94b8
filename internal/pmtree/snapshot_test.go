package pmtree

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSnapshotKeepsItsMoment is the tree-level half of the index's
// isolation contract: a Snapshot answers every query — the traversal,
// the flat pass, the pair join, serialization — from the points it held
// when taken, while the tree it came from goes on inserting (past the
// snapshot's lengths, through several growth reallocations of every
// array) and deleting (epochs later than the snapshot's). Readers run
// concurrently with the writer; under -race that is the proof that
// nothing a snapshot reads is written. A snapshot taken at the end sees
// all of it, like a tree built the same way with no snapshots around.
func TestSnapshotKeepsItsMoment(t *testing.T) {
	data := randData(900, 6, 171)
	tr, err := Build(data[:500], nil, Config{NumPivots: 3, PivotSeed: 172})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 40; id++ { // the snapshot has dead rows of its own
		if err := tr.Delete(id * 7); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	rng := rand.New(rand.NewSource(173))
	queries := make([][]float64, 12)
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}
	// answers of one tree state: a small radius (traversal), a large one
	// (flat pass), the closest pairs and the stream.
	type answers struct {
		near, far [][]Result
		pairs     []PairCandidate
		stream    []byte
	}
	ask := func(tree *Tree) answers {
		var a answers
		for _, q := range queries {
			var e RangeEnumerator
			for _, r := range []float64{6, 40} {
				if err := e.Reset(tree, q); err != nil {
					t.Error(err)
				}
				var out []Result
				e.Expand(r, func(id int32, d float64) { out = append(out, Result{ID: id, Dist: d}) })
				sortResults(out)
				if r == 6 {
					a.near = append(a.near, out)
				} else {
					a.far = append(a.far, out)
				}
			}
		}
		en := tree.NewPairEnumerator()
		for len(a.pairs) < 25 {
			c, ok := en.Next()
			if !ok {
				break
			}
			a.pairs = append(a.pairs, c)
		}
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Error(err)
		}
		a.stream = buf.Bytes()
		return a
	}
	same := func(tag string, got, want answers) {
		t.Helper()
		for i := range queries {
			if !slices.Equal(got.near[i], want.near[i]) || !slices.Equal(got.far[i], want.far[i]) {
				t.Errorf("%s: query %d answers changed", tag, i)
			}
		}
		if !slices.Equal(got.pairs, want.pairs) {
			t.Errorf("%s: closest pairs changed", tag)
		}
		if !bytes.Equal(got.stream, want.stream) {
			t.Errorf("%s: the stream changed", tag)
		}
	}
	want := ask(snap)
	if snap.Len() != 460 || snap.Rows() != 500 {
		t.Fatalf("snapshot holds %d points in %d rows, want 460 in 500", snap.Len(), snap.Rows())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					same("while the tree is mutated", ask(snap), want)
				}
			}
		}()
	}
	for i, p := range data[500:] {
		if err := tr.Insert(p, int32(500+i)); err != nil {
			t.Error(err)
		}
		if victim := int32(1 + 7*(i%70) + 3*(i/70)); tr.IsLive(victim) {
			if err := tr.Delete(victim); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	same("after the mutations", ask(snap), want)
	if snap.Len() != 460 || snap.Rows() != 500 || snap.IsLive(500) || !snap.IsLive(1) || tr.IsLive(1) {
		t.Fatalf("the snapshot moved: %d points in %d rows; id 500 live %v, id 1 live %v (in the tree: %v)",
			snap.Len(), snap.Rows(), snap.IsLive(500), snap.IsLive(1), tr.IsLive(1))
	}

	// The tree itself, and a snapshot of it now, hold everything since.
	late := ask(tr.Snapshot())
	same("tree and its latest snapshot", ask(tr), late)
	live := 0
	tr.WalkIDs(func(int32) { live++ })
	if tr.Rows() != 900 || live != tr.Len() || tr.Len() >= 860 {
		t.Fatalf("the tree holds %d points (%d walked) in %d rows", tr.Len(), live, tr.Rows())
	}
}

// TestInsertRefusesUsedIDs: ids only grow. One the tree has held is
// never taken again, deleted or not — its delete epoch is what snapshots
// still read — and one skipped on the way up stays dead.
func TestInsertRefusesUsedIDs(t *testing.T) {
	data := randData(6, 3, 181)
	tr, err := Build(data[:3], []int32{0, 1, 5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, 1, 3, 5} {
		if err := tr.Insert(data[3], id); err == nil {
			t.Fatalf("id %d, not above every id held, was inserted", id)
		}
	}
	if err := tr.Insert(data[4], 9); err != nil {
		t.Fatal(err)
	}
	if !tr.IsLive(0) || tr.IsLive(1) || tr.IsLive(3) || !tr.IsLive(9) || tr.IsLive(7) || tr.IsLive(10) || tr.Len() != 3 {
		t.Fatalf("after the inserts: live 0:%v 1:%v 3:%v 9:%v 7:%v 10:%v, %d points",
			tr.IsLive(0), tr.IsLive(1), tr.IsLive(3), tr.IsLive(9), tr.IsLive(7), tr.IsLive(10), tr.Len())
	}
}
