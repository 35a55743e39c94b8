package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// Delete must retire ids permanently (no reuse by later Inserts), drop
// the points from every query path, and keep LiveLen/Len split.
func TestDeleteLifecycle(t *testing.T) {
	data := clusteredData(500, 10, 5, 90)
	ix, err := Build(data, Config{Seed: 91, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 500 || ix.LiveLen() != 500 {
		t.Fatalf("fresh index: Len=%d LiveLen=%d", ix.Len(), ix.LiveLen())
	}
	rng := rand.New(rand.NewSource(92))
	dead := map[int32]bool{}
	for _, id := range rng.Perm(500)[:200] {
		if err := ix.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
		dead[int32(id)] = true
	}
	if ix.Len() != 500 || ix.LiveLen() != 300 {
		t.Fatalf("after deletes: Len=%d LiveLen=%d", ix.Len(), ix.LiveLen())
	}
	// Errors: unknown, double-delete, negative.
	for id, wantErr := range map[int32]bool{-1: true, 500: true} {
		if err := ix.Delete(id); (err != nil) != wantErr {
			t.Fatalf("Delete(%d) err=%v", id, err)
		}
	}
	for id := range dead {
		if err := ix.Delete(id); err == nil {
			t.Fatal("double delete accepted")
		}
		break
	}

	// No query path may surface a dead id.
	for trial := 0; trial < 10; trial++ {
		q := data[rng.Intn(len(data))]
		res, err := ix.Search(context.Background(), q, 20, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if dead[r.ID] {
				t.Fatalf("KNN returned deleted id %d", r.ID)
			}
			// The distance must match the id's original vector —
			// catching any row-recycling mixup, not just liveness.
			if want := vec.L2(q, data[r.ID]); want != r.Dist {
				t.Fatalf("id %d: dist %v, vector says %v", r.ID, r.Dist, want)
			}
		}
	}
	pairs, err := ix.SearchPairs(context.Background(), 15, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if dead[p.I] || dead[p.J] {
			t.Fatalf("ClosestPairs returned deleted id: %+v", p)
		}
	}
	if nb, err := ix.SearchBall(context.Background(), data[0], 100, SearchOptions{C: 1.5}); err != nil {
		t.Fatal(err)
	} else if nb != nil && dead[nb.ID] {
		t.Fatalf("BallCover returned deleted id %d", nb.ID)
	}

	// Inserts get fresh ids even with 200 slots free.
	id, err := ix.Insert(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 500 {
		t.Fatalf("insert after deletes assigned id %d, want 500", id)
	}
	// ...and a fresh row: no tombstoned row is written over, the 200 stay
	// dead until a Compact drops them.
	if got := ix.data.Len(); got != 501 || ix.dead() != 200 {
		t.Fatalf("store holds %d rows, %d of them dead; want 501 and 200", got, ix.dead())
	}
}

// Compact preserves ids and exact answers over the live set.
func TestCompactPreservesAnswers(t *testing.T) {
	data := clusteredData(400, 8, 4, 93)
	ix, err := Build(data, Config{Seed: 94, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(95))
	for _, id := range rng.Perm(400)[:160] {
		if err := ix.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
	}
	before := map[int32]bool{}
	q := data[7]
	res, err := ix.Search(context.Background(), q, 10, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		before[r.ID] = true
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 400 || ix.LiveLen() != 240 {
		t.Fatalf("post-compact: Len=%d LiveLen=%d", ix.Len(), ix.LiveLen())
	}
	if got := ix.data.Len(); got != 240 {
		t.Fatalf("compacted store holds %d slots, want 240", got)
	}
	res, err = ix.Search(context.Background(), q, 10, SearchOptions{C: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		// Ids survive compaction and still resolve to the same
		// vectors (exact distance check).
		if want := vec.L2(q, data[r.ID]); want != r.Dist {
			t.Fatalf("id %d: dist %v, vector says %v", r.ID, r.Dist, want)
		}
	}
	// Mutations keep working after compaction.
	if id, err := ix.Insert(data[1]); err != nil || id != 400 {
		t.Fatalf("insert after compact: id=%d err=%v", id, err)
	}
	if err := ix.Delete(400); err != nil {
		t.Fatalf("delete after compact: %v", err)
	}
}

// The auto-compaction threshold repacks the store once the dead share
// reaches the configured fraction.
func TestAutoCompactTriggers(t *testing.T) {
	data := clusteredData(200, 6, 3, 96)
	ix, err := Build(data, Config{Seed: 97}) // default threshold 0.3
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 59; id++ {
		if err := ix.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.data.Len(); got != 200 {
		t.Fatalf("compacted early: %d slots after 59/200 deletes", got)
	}
	// The 60th delete crosses 30% dead and must trigger the repack.
	if err := ix.Delete(59); err != nil {
		t.Fatal(err)
	}
	if got := ix.data.Len(); got != 140 {
		t.Fatalf("auto-compact did not run: %d slots, want 140", got)
	}
	if ix.LiveLen() != 140 || ix.Len() != 200 {
		t.Fatalf("post auto-compact: Len=%d LiveLen=%d", ix.Len(), ix.LiveLen())
	}
}

// Deleting every point leaves a working empty index; Compact resets it
// and mutations/queries keep functioning.
func TestDeleteAllThenRebuild(t *testing.T) {
	data := clusteredData(60, 5, 2, 98)
	ix, err := Build(data, Config{Seed: 99, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	for id := range data {
		if err := ix.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.LiveLen() != 0 {
		t.Fatalf("LiveLen=%d after deleting all", ix.LiveLen())
	}
	if res, err := ix.Search(context.Background(), data[0], 5, SearchOptions{C: 1.5}); err != nil || len(res) != 0 {
		t.Fatalf("KNN over empty live set: res=%v err=%v", res, err)
	}
	if pairs, err := ix.SearchPairs(context.Background(), 3, SearchOptions{C: 1.5}); err != nil || len(pairs) != 0 {
		t.Fatalf("ClosestPairs over empty live set: %v %v", pairs, err)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if ix.data.Len() != 0 || ix.Len() != 60 {
		t.Fatalf("compact-to-empty: slots=%d Len=%d", ix.data.Len(), ix.Len())
	}
	// Refill and query.
	for i := range data {
		if _, err := ix.Insert(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Search(context.Background(), data[3], 5, SearchOptions{C: 1.5})
	if err != nil || len(res) != 5 {
		t.Fatalf("refill query: %d results err=%v", len(res), err)
	}
	// Save/load an all-deleted-then-compacted index round-trips too.
	ix2, _ := Build(data, Config{Seed: 99, AutoCompactFraction: -1})
	for id := range data {
		_ = ix2.Delete(int32(id))
	}
	if err := ix2.Compact(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 60 || loaded.LiveLen() != 0 {
		t.Fatalf("empty round trip: Len=%d LiveLen=%d", loaded.Len(), loaded.LiveLen())
	}
	if _, err := loaded.Insert(data[0]); err != nil {
		t.Fatal(err)
	}
}

// AutoCompactFraction validation.
func TestAutoCompactFractionValidation(t *testing.T) {
	data := clusteredData(30, 4, 2, 100)
	if _, err := Build(data, Config{AutoCompactFraction: 1.5}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := Build(data, Config{AutoCompactFraction: -1}); err != nil {
		t.Fatalf("disabled fraction rejected: %v", err)
	}
}
