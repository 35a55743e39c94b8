// Package vec provides the low-level vector kernels used throughout the
// PM-LSH reproduction: Euclidean and L1 distances, dot products, and a
// few aggregate helpers.
//
// Points are plain []float64 slices; SquaredL2ToMany alone reads rows
// stored as float32 (the PM-tree's projected points) and widens them.
// The hot kernels (Dot, DotToMany, SquaredL2, SquaredL2Bounded,
// SquaredL2BoundedGather, SquaredL2ToMany, MaxAbsDiffToMany) dispatch
// at init to the fastest backend the host
// supports: hand-written AVX2 assembly on amd64 CPUs that advertise
// it, and 4-way unrolled scalar Go loops everywhere else (and under
// -tags noasm). Both backends produce
// bit-identical results — see kernels_generic.go for the accumulation
// contract — so the choice of backend is invisible to callers. Backend
// reports which one is active.
package vec

import (
	"math"
	"sort"
)

// The hot kernels dispatch through these variables so the exported
// wrappers stay small enough to inline into callers — one predicted
// indirect call instead of a chain of wrapper frames, which matters at
// projected dimensionality (m≈15) where call overhead rivals the
// arithmetic. They default to the portable kernels; an init in
// dispatch_amd64.go upgrades them to the AVX2 assembly when the CPU
// and OS support it (and the build is not tagged noasm).
var (
	dotImpl              = dotGeneric
	dotToManyImpl        = dotToManyGeneric
	squaredL2Impl        = squaredL2Generic
	squaredL2BoundedImpl = squaredL2BoundedGeneric
	squaredL2GatherImpl  = squaredL2BoundedGatherGeneric
	squaredL2ToManyImpl  = squaredL2ToManyGeneric
	maxAbsDiffToManyImpl = maxAbsDiffToManyGeneric
	backendName          = "generic"
)

// Backend names the distance-kernel backend selected at init: "avx2"
// on amd64 hosts with AVX2 support, "generic" otherwise (including
// -tags noasm builds).
func Backend() string { return backendName }

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch in Dot")
	}
	return dotImpl(a, b)
}

// SquaredL2 returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
func SquaredL2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch in SquaredL2")
	}
	return squaredL2Impl(a, b)
}

// L2 returns the Euclidean distance between a and b.
// It panics if the lengths differ.
func L2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch in L2")
	}
	return math.Sqrt(squaredL2Impl(a, b))
}

// abandonStride is how many components SquaredL2Bounded accumulates
// between bound checks: large enough that the check cost is amortized,
// small enough that hopeless candidates are dropped early.
const abandonStride = 16

// SquaredL2Bounded returns the squared Euclidean distance between a and
// b as long as it does not exceed bound; once the running partial sum
// passes bound the scan abandons and returns that partial sum (which is
// > bound but not the full distance). Callers prune candidates against a
// running k-th-best distance: a return value > bound proves the
// candidate cannot beat the bound, which is all top-k selection needs.
// A non-positive bound disables early abandonment. It panics if the
// lengths differ.
func SquaredL2Bounded(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch in SquaredL2Bounded")
	}
	if bound <= 0 {
		return squaredL2Impl(a, b)
	}
	return squaredL2BoundedImpl(a, b, bound)
}

// SquaredL2BoundedGather is SquaredL2Bounded from q to each listed row
// of the flat buffer (rows of len(q) values laid out back to back, as
// in a store.Store): dst[j] receives the bounded squared distance to
// row rows[j], bit for bit what SquaredL2Bounded(q, row, bound) returns
// for a positive, infinite or NaN bound. Rows are independent, so the
// accelerated backend reduces four of them in lockstep — four
// dependency chains and four cache misses in flight instead of one —
// which is what makes verifying a block of candidates cheaper than
// verifying them one call at a time. Only +Inf (or NaN) means "no
// bound": a zero or negative bound abandons at the first stride
// boundary like any other, where SquaredL2Bounded would compute the
// full distance — the result is then still the exact distance or a
// partial sum above the bound. Indices may repeat. It panics when q is
// empty, dst is shorter than rows, or an index falls outside flat.
func SquaredL2BoundedGather(dst []float64, q, flat []float64, rows []int32, bound float64) {
	dim := len(q)
	if dim == 0 || len(dst) < len(rows) {
		panic("vec: dimension mismatch in SquaredL2BoundedGather")
	}
	limit := len(flat) / dim
	for _, r := range rows {
		if r < 0 || int(r) >= limit {
			panic("vec: row index out of range in SquaredL2BoundedGather")
		}
	}
	squaredL2GatherImpl(dst, q, flat, rows, bound)
}

// SquaredL2ToMany computes the squared Euclidean distance from q to
// every dim-length float32 row of the flat buffer (rows laid out back
// to back), writing one distance per row into dst and returning dst
// (allocated when nil). A row is widened to float64, which is exact,
// and its distance is bit for bit SquaredL2(q, widened row). len(q)
// must equal dim, dim must be positive, len(flat) must be a multiple of
// dim and dst, when non-nil, must hold len(flat)/dim values; violations
// panic. Streaming one contiguous buffer of half-width rows instead of
// chasing a pointer per row is the batch counterpart of SquaredL2.
func SquaredL2ToMany(dst []float64, q []float64, flat []float32, dim int) []float64 {
	if dim <= 0 || len(q) != dim {
		panic("vec: dimension mismatch in SquaredL2ToMany")
	}
	if dst == nil {
		dst = make([]float64, len(flat)/dim)
	}
	// One multiply checks both shapes; the leaf scan calls this per
	// handful of rows, where a division would rival the kernel.
	if len(flat) != len(dst)*dim {
		panic("vec: flat must hold one dim-length row per dst value in SquaredL2ToMany")
	}
	squaredL2ToManyImpl(dst, q, flat, dim)
	return dst
}

// DotToMany writes into dst[r] the inner product of q with the r-th
// dim-length row of the flat buffer, bit for bit Dot(row, q). len(q)
// must equal dim, dim must be positive and flat must hold len(dst)
// rows; violations panic. A projection is this kernel over its
// coefficient rows: the accelerated backend takes four rows per pass
// over q, four independent sums in flight where one Dot call at a time
// waits on one.
func DotToMany(dst []float64, q, flat []float64, dim int) {
	if dim <= 0 || len(q) != dim || len(flat) != len(dst)*dim {
		panic("vec: dimension mismatch in DotToMany")
	}
	dotToManyImpl(dst, q, flat, dim)
}

// MaxAbsDiffToMany folds, for every dim-length row of the flat buffer,
// the largest component difference max_k |q[k] − row[k]| — the row's
// Chebyshev distance to q — into dst: dst[r] becomes the larger of its
// previous value and that distance. A term replaces the running
// maximum only when it compares strictly greater, so NaN terms are
// ignored. The PM-tree leaf filter is this kernel over the entries'
// pivot-distance rows: by the triangle inequality the result lower
// bounds every entry's distance to the query. len(q) must equal dim,
// dim must be positive and flat must hold len(dst) rows; violations
// panic.
func MaxAbsDiffToMany(dst []float64, q, flat []float64, dim int) {
	if dim <= 0 || len(q) != dim || len(flat) != len(dst)*dim {
		panic("vec: dimension mismatch in MaxAbsDiffToMany")
	}
	maxAbsDiffToManyImpl(dst, q, flat, dim)
}

// InsertBounded inserts x into s — sorted ascending by key — keeping s
// capped at k elements. Equal keys keep first-inserted order, matching
// the uncapped sort-then-truncate behavior; an x that cannot enter the
// top k leaves s unchanged. It is the one shared implementation of the
// bounded top-k insertion every query path's verifier uses.
func InsertBounded[T any](s []T, x T, k int, key func(T) float64) []T {
	i := sort.Search(len(s), func(j int) bool { return key(s[j]) > key(x) })
	if i >= k {
		return s
	}
	if len(s) < k {
		var zero T
		s = append(s, zero)
	}
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// maxPrealloc caps PreallocCap: 64Ki entries is a megabyte of 16-byte
// results, far above any top-k that is hot, far below what can hurt.
const maxPrealloc = 1 << 16

// PreallocCap returns the capacity to reserve for a buffer the caller
// asked to size for want items when at most population can ever
// arrive: the smaller of the two, capped at a fixed maximum and never
// negative. Top-k buffers and dedup maps grow on demand past it
// (InsertBounded appends), so capacity is an optimisation — and a
// request-supplied k (a k of 1<<40 is valid JSON) must never size an
// allocation by itself: make with it is a fatal out-of-memory, not a
// recoverable panic.
func PreallocCap(want, population int) int {
	return max(0, min(want, population, maxPrealloc))
}

// L1 returns the Manhattan distance between a and b.
// It panics if the lengths differ.
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch in L1")
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// Clone returns a fresh copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Scale stores s*a in dst and returns dst. dst may alias a.
func Scale(dst, a []float64, s float64) []float64 {
	if len(dst) != len(a) {
		panic("vec: dimension mismatch in Scale")
	}
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// Mean returns the component-wise mean of the given points.
// It returns nil for an empty input and panics if the points do not all
// share the dimensionality of the first.
func Mean(points [][]float64) []float64 {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	out := make([]float64, d)
	for _, p := range points {
		if len(p) != d {
			panic("vec: dimension mismatch in Mean")
		}
		for i, v := range p {
			out[i] += v
		}
	}
	inv := 1 / float64(len(points))
	for i := range out {
		out[i] *= inv
	}
	return out
}
