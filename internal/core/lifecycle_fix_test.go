package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// putScratch must shed buffers whose capacity outgrew the index (they
// would otherwise pin their high-water memory in the pool forever) while
// keeping right-sized buffers warm: the round's ids here, the
// enumerator's buffers in its Release (pmtree's
// TestReleaseShedsOutgrownBuffers).
func TestPutScratchShedsOversizedBuffers(t *testing.T) {
	data := clusteredData(200, 8, 4, 17)
	ix, err := Build(data, Config{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*ix.data.Live() + 1024

	s := ix.getScratch()
	s.ids = make([]int32, 0, bound+1)
	ix.putScratch(s, ix.LiveLen())
	if s.ids != nil {
		t.Fatalf("oversized ids kept: cap %d, bound %d", cap(s.ids), bound)
	}

	s = ix.getScratch()
	s.ids = make([]int32, 64)
	ix.putScratch(s, ix.LiveLen())
	if cap(s.ids) != 64 {
		t.Fatalf("right-sized ids not kept: cap %d", cap(s.ids))
	}

	// A query after shedding still works (buffers regrow on demand).
	if _, err := ix.Search(context.Background(), data[0], 5, SearchOptions{C: 1.5}); err != nil {
		t.Fatal(err)
	}
}

// AutoCompactFraction semantics: zero keeps meaning "use the default",
// AutoCompactAlways compacts on any tombstone, negative never
// auto-compacts.
func TestAutoCompactFractionSentinels(t *testing.T) {
	data := clusteredData(100, 6, 4, 23)

	// AutoCompactAlways: the first Delete leaves no tombstone behind.
	ix, err := Build(data, Config{Seed: 24, AutoCompactFraction: AutoCompactAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{3, 57, 91} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		if df := ix.data.DeadFraction(); df != 0 {
			t.Fatalf("AutoCompactAlways: dead fraction %v after Delete, want 0", df)
		}
	}
	if ix.Len() != 100 || ix.LiveLen() != 97 {
		t.Fatalf("Len=%d LiveLen=%d after compacting deletes", ix.Len(), ix.LiveLen())
	}

	// Zero: default threshold 0.3 — 29 tombstones stay, the 30th
	// triggers the compact.
	ix, err = Build(data, Config{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 29; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if df := ix.data.DeadFraction(); df == 0 {
		t.Fatal("default threshold compacted below 0.3")
	}
	if err := ix.Delete(29); err != nil {
		t.Fatal(err)
	}
	if df := ix.data.DeadFraction(); df != 0 {
		t.Fatalf("default threshold: dead fraction %v at 0.3, want compact", df)
	}

	// Negative: never compacts automatically.
	ix, err = Build(data, Config{Seed: 24, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 80; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if df := ix.data.DeadFraction(); df == 0 {
		t.Fatal("negative AutoCompactFraction still auto-compacted")
	}
}

// The AutoCompactAlways sentinel must survive a serialization round
// trip (it is persisted as a plain float64).
func TestAutoCompactAlwaysRoundTrip(t *testing.T) {
	data := clusteredData(80, 5, 4, 29)
	ix, err := Build(data, Config{Seed: 30, AutoCompactFraction: AutoCompactAlways})
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
	if err := loaded.Delete(7); err != nil {
		t.Fatal(err)
	}
	if df := loaded.data.DeadFraction(); df != 0 {
		t.Fatalf("loaded index lost AutoCompactAlways: dead fraction %v", df)
	}
}

// SearchBatch must never hand back a partially populated result slice:
// on a mid-batch query error, and on cancellation, the results are nil.
func TestSearchBatchNilResultsOnError(t *testing.T) {
	data := clusteredData(300, 7, 4, 31)
	ix, err := Build(data, Config{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A wrong-dimension query in the middle of an otherwise valid
	// batch: the good queries' answers must not leak out.
	qs := make([][]float64, 9)
	for i := range qs {
		qs[i] = data[i*20]
	}
	qs[4] = []float64{1, 2, 3} // dimension 3, index expects 7
	out, err := ix.SearchBatch(ctx, qs, 5, SearchOptions{C: 1.5})
	if err == nil {
		t.Fatal("bad mid-batch query: no error")
	}
	if out != nil {
		t.Fatalf("bad mid-batch query: non-nil results (%d entries) alongside error %v", len(out), err)
	}

	// Cancellation: same contract.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	out, err = ix.SearchBatch(canceled, qs[:3], 5, SearchOptions{C: 1.5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch: err=%v", err)
	}
	if out != nil {
		t.Fatalf("canceled batch: non-nil results (%d entries)", len(out))
	}
}
