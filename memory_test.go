package pmlsh

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// liveHeap is the heap still reachable after two forced collections
// (the second frees what the first's finalizers and sweeps released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIndexHoldsOneCopyOfTheData pins the index's memory cost on the
// benchmark's knn-d128 shape: the rows once, their projections and the
// PM-tree beside them (index_mem_ratio read 2.48 while every shard kept
// a second replica, 1.23 since). The bound leaves room for allocator
// slack and not for another copy of the rows.
func TestIndexHoldsOneCopyOfTheData(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20000 × 128 index")
	}
	ds, err := dataset.Generate(dataset.Spec{Name: "knn-d128", N: 20000, D: 128, SubspaceDim: 12, RCTarget: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	ix, err := Build(ds.Points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(ds)
	runtime.KeepAlive(ix)
	rows := float64(8 * len(ds.Points) * len(ds.Points[0]))
	if ratio := (float64(after) - float64(before)) / rows; ratio > 1.5 {
		t.Fatalf("the index holds %.2f× the bytes of its rows, want at most 1.5×", ratio)
	} else {
		t.Logf("index heap / row bytes = %.3f", ratio)
	}
}
