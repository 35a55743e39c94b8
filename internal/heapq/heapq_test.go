package heapq

import (
	"math/rand"
	"sort"
	"testing"
)

type intItem int

func (a intItem) Less(b intItem) bool { return a < b }

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		var h Heap[intItem]
		want := make([]int, n)
		for i := range want {
			v := rng.Intn(50) // duplicates on purpose
			want[i] = v
			h.Push(intItem(v))
		}
		sort.Ints(want)
		if h.Len() != n {
			t.Fatalf("Len = %d, want %d", h.Len(), n)
		}
		for i, w := range want {
			if n-i > 0 {
				if m := int(h.Min()); m != w {
					t.Fatalf("trial %d: Min = %d, want %d", trial, m, w)
				}
			}
			if got := int(h.Pop()); got != w {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("heap not drained: %d left", h.Len())
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Heap[intItem]
	oracle := make([]int, 0, 64)
	for op := 0; op < 5000; op++ {
		if len(oracle) == 0 || rng.Intn(3) > 0 {
			v := rng.Intn(1000)
			h.Push(intItem(v))
			oracle = append(oracle, v)
			sort.Ints(oracle)
			continue
		}
		got := int(h.Pop())
		if got != oracle[0] {
			t.Fatalf("op %d: Pop = %d, want %d", op, got, oracle[0])
		}
		oracle = oracle[1:]
	}
}

type ptrItem struct {
	key int
	p   *int
}

func (a ptrItem) Less(b ptrItem) bool { return a.key < b.key }

func TestResetAndReleaseKeepCapacity(t *testing.T) {
	var h Heap[ptrItem]
	x := 7
	for i := 0; i < 10; i++ {
		h.Push(ptrItem{key: i, p: &x})
	}
	c := cap(h.items)
	h.Reset()
	if h.Len() != 0 || cap(h.items) != c {
		t.Fatalf("Reset: len=%d cap=%d, want 0/%d", h.Len(), cap(h.items), c)
	}
	for i := 0; i < 10; i++ {
		h.Push(ptrItem{key: i, p: &x})
	}
	h.Release()
	if h.Len() != 0 || cap(h.items) != c {
		t.Fatalf("Release: len=%d cap=%d, want 0/%d", h.Len(), cap(h.items), c)
	}
	for _, it := range h.items[:cap(h.items)] {
		if it.p != nil {
			t.Fatal("Release left a live pointer in the backing array")
		}
	}
}

func TestPushPopDoNotAllocateSteadyState(t *testing.T) {
	var h Heap[intItem]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			h.Push(intItem(50 - i))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run, want 0", allocs)
	}
}
