package vec

import "math"

// Portable reference kernels. These are the semantics every accelerated
// backend must reproduce bit for bit: four independent accumulators
// over a stride-4 loop, reduced as ((s0+s1)+s2)+s3, followed by a
// sequential scalar tail. The AVX2 backend maps accumulator j onto
// vector lane j (lane j sees exactly the elements with index ≡ j mod
// 4, in the same order), so a full pass is bit-identical by
// construction — which is also why the vector width is pinned to four
// float64 lanes: an AVX-512 backend with eight lanes would change the
// association order and silently drift answers by ulps.
//
// The kernels use separate multiply and add (never a fused
// multiply-add): Go's amd64 compiler does not fuse x*y+z, and a fused
// backend would round once where the reference rounds twice.

// dotGeneric is the portable Dot kernel.
func dotGeneric(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// squaredL2Generic is the portable SquaredL2 kernel.
func squaredL2Generic(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// squaredL2BoundedGeneric is the portable SquaredL2Bounded kernel
// (SquaredL2Bounded itself only calls it with bound > 0). The
// accumulation pattern mirrors squaredL2Generic exactly (the same four
// running accumulators over the same element order), so a pass that
// never abandons returns a bit-identical result; an abandoning pass
// returns the partial reduction ((s0+s1)+s2)+s3 at the stride-16 block
// boundary where it first exceeded bound.
func squaredL2BoundedGeneric(a, b []float64, bound float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		for j := i; j < i+abandonStride; j += 4 {
			d0 := a[j] - b[j]
			d1 := a[j+1] - b[j+1]
			d2 := a[j+2] - b[j+2]
			d3 := a[j+3] - b[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if p := s0 + s1 + s2 + s3; p > bound {
			return p
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// squaredL2BoundedGatherGeneric is the portable SquaredL2BoundedGather
// kernel: one squaredL2BoundedGeneric pass per listed row, whatever the
// bound (a non-positive one abandons at the first block boundary).
func squaredL2BoundedGatherGeneric(dst []float64, q, flat []float64, rows []int32, bound float64) {
	dim := len(q)
	for j, r := range rows {
		off := int(r) * dim
		dst[j] = squaredL2BoundedGeneric(q, flat[off:off+dim:off+dim], bound)
	}
}

// dotToManyGeneric is the portable DotToMany kernel: one dotGeneric
// pass per dim-length row of flat.
func dotToManyGeneric(dst []float64, q, flat []float64, dim int) {
	for r := range dst {
		dst[r] = dotGeneric(flat[r*dim:(r+1)*dim:(r+1)*dim], q)
	}
}

// squaredL2ToManyGeneric is the portable SquaredL2ToMany kernel:
// squaredL2Generic over each dim-length float32 row of flat, every
// element widened as it is read.
func squaredL2ToManyGeneric(dst []float64, q []float64, flat []float32, dim int) {
	for r := range dst {
		b := flat[r*dim : (r+1)*dim : (r+1)*dim]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= dim; i += 4 {
			d0 := q[i] - float64(b[i])
			d1 := q[i+1] - float64(b[i+1])
			d2 := q[i+2] - float64(b[i+2])
			d3 := q[i+3] - float64(b[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := s0 + s1 + s2 + s3
		for ; i < dim; i++ {
			d := q[i] - float64(b[i])
			s += d * d
		}
		dst[r] = s
	}
}

// maxAbsDiffToManyGeneric is the portable MaxAbsDiffToMany kernel: per
// dim-length row of flat, a sequential fold of |q[k] − row[k]| into
// dst[r] that keeps the accumulator unless the new term compares
// strictly greater — so a NaN term is ignored and a NaN accumulator
// sticks, exactly what x86 MAXSD(term, acc) computes, which is how the
// AVX2 backend stays bit-identical on every input.
func maxAbsDiffToManyGeneric(dst []float64, q, flat []float64, dim int) {
	for r := range dst {
		acc := dst[r]
		for k, v := range flat[r*dim : (r+1)*dim : (r+1)*dim] {
			if b := math.Abs(q[k] - v); b > acc {
				acc = b
			}
		}
		dst[r] = acc
	}
}
