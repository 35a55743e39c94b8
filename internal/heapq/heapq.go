// Package heapq provides a hand-rolled generic binary min-heap.
//
// The standard container/heap works through an interface{} facade: every
// Push boxes its element into an interface value (one allocation per
// item) and every comparison goes through dynamic dispatch. The query
// engines in this repository push one heap item per surviving candidate
// — node frontiers, point candidates, pair bounds — so those per-item
// costs dominate. Heap[T] stores the items in one flat slice of concrete
// structs and compares them with a direct (inlinable) method call; items
// are designed to be small and pointer-free so sift swaps neither trip
// GC write barriers nor copy large values (pointer-bearing geometry
// lives in side arenas indexed by an int32 field, as pmtree's pair
// enumerator does).
package heapq

// Ordered is the constraint heap elements satisfy: a strict-weak
// "less than" against another element of the same type.
type Ordered[T any] interface {
	Less(T) bool
}

// Heap is a binary min-heap of T. The zero value is an empty heap ready
// for use.
type Heap[T Ordered[T]] struct {
	items []T
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing array for reuse.
func (h *Heap[T]) Reset() { h.items = h.items[:0] }

// Release empties the heap and zeroes the full backing array (so
// pooled heaps do not pin whatever their items referenced), keeping
// the capacity for reuse.
func (h *Heap[T]) Release() {
	full := h.items[:cap(h.items)]
	clear(full)
	h.items = h.items[:0]
}

// Min returns the smallest item without removing it. It panics on an
// empty heap (callers check Len first, like indexing a slice).
func (h *Heap[T]) Min() T { return h.items[0] }

// Push queues one item.
func (h *Heap[T]) Push(it T) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].Less(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the smallest item. It panics on an empty
// heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // drop stale copy so popped items are not pinned
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].Less(h.items[smallest]) {
			smallest = l
		}
		if r < last && h.items[r].Less(h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
