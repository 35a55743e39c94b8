//go:build amd64 && !noasm

package vec

// Kernel dispatch for amd64: one CPUID probe at init installs the AVX2
// assembly backend (kernels_amd64.s) into the impl variables when the
// CPU and the OS both support 256-bit vector state; otherwise the
// portable Go defaults stay. Build with -tags noasm to force the
// portable backend on any architecture.
//
// The assembly keeps the reference kernels' exact float semantics:
// lane j of the single 4-lane accumulator sees exactly the elements
// accumulator j of the portable loop sees, in the same order, and the
// horizontal reduction associates as ((s0+s1)+s2)+s3 — so full passes
// are bit-identical and SquaredL2Bounded abandons at the same stride-16
// block boundaries with the same partial sums (pinned by the
// equivalence suite in kernels_amd64_test.go). SquaredL2BoundedGather
// keeps one such accumulator per row and runs four rows side by side, so
// each row's result is the single-row kernel's. That contract is also
// why there is no AVX-512 variant: eight-lane accumulation would
// reassociate the sum and drift results by ulps.

// gatherWidth is how many rows squaredL2BoundedGather4AVX2 reduces in
// lockstep.
const gatherWidth = 4

// squaredL2BoundedGatherAVX2 feeds the rows to the four-row assembly
// kernel; a last group of fewer than four is padded by repeating its
// final row (the duplicate lanes re-read a row already in cache and
// their results are dropped).
func squaredL2BoundedGatherAVX2(dst []float64, q, flat []float64, rows []int32, bound float64) {
	i := 0
	for ; i+gatherWidth <= len(rows); i += gatherWidth {
		squaredL2BoundedGather4AVX2((*[gatherWidth]float64)(dst[i:]), q, flat, (*[gatherWidth]int32)(rows[i:]), bound)
	}
	if rest := rows[i:]; len(rest) > 0 {
		var pad [gatherWidth]int32
		var out [gatherWidth]float64
		for j := range pad {
			pad[j] = rest[min(j, len(rest)-1)]
		}
		squaredL2BoundedGather4AVX2(&out, q, flat, &pad, bound)
		copy(dst[i:], out[:len(rest)])
	}
}

// useAVX2 records the init-time probe (read by the equivalence tests).
var useAVX2 = detectAVX2()

func init() {
	if useAVX2 {
		dotImpl = dotAVX2
		squaredL2Impl = squaredL2AVX2
		squaredL2BoundedImpl = squaredL2BoundedAVX2
		squaredL2GatherImpl = squaredL2BoundedGatherAVX2
		squaredL2ToManyImpl = squaredL2ToManyAVX2
		maxAbsDiffToManyImpl = maxAbsDiffToManyAVX2
		screenF32Impl = screenF32AVX2
		screenI8Impl = screenI8AVX2
		screenPairF32Impl = screenPairF32AVX2
		screenPairI8Impl = screenPairI8AVX2
		backendName = "avx2"
	}
}

// detectAVX2 reports whether the CPU supports AVX2 and the OS preserves
// the 256-bit vector state (OSXSAVE enabled and XCR0 advertising
// SSE+AVX state).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// Implemented in kernels_amd64.s.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func dotAVX2(a, b []float64) float64

func squaredL2AVX2(a, b []float64) float64

func squaredL2BoundedAVX2(a, b []float64, bound float64) float64

//go:noescape
func squaredL2BoundedGather4AVX2(dst *[gatherWidth]float64, q, flat []float64, rows *[gatherWidth]int32, bound float64)

func squaredL2ToManyAVX2(dst []float64, q, flat []float64, dim int)

func maxAbsDiffToManyAVX2(dst []float64, q, flat []float64, dim int)
