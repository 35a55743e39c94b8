//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 distance kernels. Bit-for-bit contract with kernels_generic.go:
// the single 4-lane ymm accumulator maps lane j onto the portable
// loop's accumulator sj (lane j sees exactly the elements with index
// ≡ j mod 4, in order), every reduction associates as ((s0+s1)+s2)+s3,
// the scalar tail runs sequentially after the reduction, and no fused
// multiply-add is used anywhere (the reference rounds the multiply and
// the add separately). SquaredL2Bounded reproduces the stride-16
// abandon blocks: four unrolled vector steps, then the partial
// reduction compared against the bound — an abandoning pass returns
// the same partial sum the portable loop returns.
//
// The loops stream both operands in address order with unaligned
// loads. The contract pins one accumulator per row, and one
// accumulator is one VADDPD dependency chain: a row reduces at one
// element per cycle (4 lanes per ~4-cycle add latency) however wide
// the load ports are, and a caller that verifies candidates one call
// at a time starts the next row's first cache miss only after the
// previous chain has retired. A second accumulator per row would break
// the reduction order, but rows are independent of one another, so
// squaredL2BoundedGather4AVX2 runs four rows' chains in lockstep —
// measured at 1.5–1.8× the single-row kernel per candidate on rows
// visited in random order (BenchmarkVerifyGather, d=128: 94 → 62 ns
// against a tight bound, 155 → 93 ns without one; d=768: 229 → 138
// and 643 → 349 ns) with every row's result unchanged.
// squaredL2ToManyAVX2 does the same over consecutive float32 rows,
// where the chain is short but all there is: at dim 15 a row is three
// vector steps, a three-add reduction and three scalar tail steps, one
// after the other, and four rows in lockstep took 2.2–2.3× less per row
// (measured while the rows were float64: 256 rows of dim 15,
// 1520–1850 → 660–710 ns, five alternating runs). dotToManyAVX2 is the
// same lockstep for inner products, the projection's kernel.

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotAVX2(a, b []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

dot_vec:
	CMPQ AX, DX
	JGE  dot_reduce
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  dot_vec

dot_reduce:
	VEXTRACTF128 $1, Y0, X2 // X2 = [s2,s3]
	VUNPCKHPD X0, X0, X3    // X3 = [s1,s1]
	VADDSD X3, X0, X0       // s0+s1
	VADDSD X2, X0, X0       // +s2
	VUNPCKHPD X2, X2, X2    // X2 = [s3,s3]
	VADDSD X2, X0, X0       // +s3

dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ AX
	JMP  dot_tail

dot_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2AVX2(a, b []float64) float64
TEXT ·squaredL2AVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

l2_vec:
	CMPQ AX, DX
	JGE  l2_reduce
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DI)(AX*8), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  l2_vec

l2_reduce:
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X0
	VADDSD X2, X0, X0
	VUNPCKHPD X2, X2, X2
	VADDSD X2, X0, X0

l2_tail:
	CMPQ AX, CX
	JGE  l2_done
	VMOVSD (SI)(AX*8), X1
	VSUBSD (DI)(AX*8), X1, X1
	VMULSD X1, X1, X1
	VADDSD X1, X0, X0
	INCQ AX
	JMP  l2_tail

l2_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func squaredL2BoundedAVX2(a, b []float64, bound float64) float64
//
// The caller guarantees bound > 0. Stride-16 abandon blocks: four
// unrolled vector steps, one partial reduction, one compare. The
// compare branches JBE (continue) so an unordered result — a NaN
// partial or a NaN bound — continues like the portable `p > bound`
// evaluating false.
TEXT ·squaredL2BoundedAVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VMOVSD bound+48(FP), X15
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, R8
	ANDQ $-16, R8

bd_block:
	CMPQ AX, R8
	JGE  bd_mid_setup
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DI)(AX*8), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD 32(SI)(AX*8), Y2
	VSUBPD  32(DI)(AX*8), Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 64(SI)(AX*8), Y3
	VSUBPD  64(DI)(AX*8), Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMOVUPD 96(SI)(AX*8), Y4
	VSUBPD  96(DI)(AX*8), Y4, Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ $16, AX

	// p = ((s0+s1)+s2)+s3 into X1, Y0 preserved for later blocks.
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X1
	VADDSD X2, X1, X1
	VUNPCKHPD X2, X2, X3
	VADDSD X3, X1, X1
	VUCOMISD X15, X1
	JBE  bd_block

	// p > bound: abandon with the partial sum.
	VMOVSD X1, ret+56(FP)
	VZEROUPPER
	RET

bd_mid_setup:
	MOVQ CX, DX
	ANDQ $-4, DX

bd_mid:
	CMPQ AX, DX
	JGE  bd_reduce
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DI)(AX*8), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  bd_mid

bd_reduce:
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X0
	VADDSD X2, X0, X0
	VUNPCKHPD X2, X2, X2
	VADDSD X2, X0, X0

bd_tail:
	CMPQ AX, CX
	JGE  bd_done
	VMOVSD (SI)(AX*8), X1
	VSUBSD (DI)(AX*8), X1, X1
	VMULSD X1, X1, X1
	VADDSD X1, X0, X0
	INCQ AX
	JMP  bd_tail

bd_done:
	VMOVSD X0, ret+56(FP)
	VZEROUPPER
	RET

// GATHER_STEP folds elements [AX+off/8, AX+off/8+4) of the four rows at
// R8–R11 into their accumulators Y0–Y3: the query chunk is loaded once
// and shared, each row keeps its own subtract, multiply and add.
#define GATHER_STEP(off) \
	VMOVUPD off(SI)(AX*8), Y4; \
	VSUBPD  off(R8)(AX*8), Y4, Y5; \
	VSUBPD  off(R9)(AX*8), Y4, Y6; \
	VSUBPD  off(R10)(AX*8), Y4, Y7; \
	VSUBPD  off(R11)(AX*8), Y4, Y8; \
	VMULPD  Y5, Y5, Y5; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y8, Y8, Y8; \
	VADDPD  Y5, Y0, Y0; \
	VADDPD  Y6, Y1, Y1; \
	VADDPD  Y7, Y2, Y2; \
	VADDPD  Y8, Y3, Y3

// GATHER_REDUCE leaves row r's ((s0+s1)+s2)+s3 in lane r of Y9 and
// keeps Y0–Y3. With rows a–d in Y0–Y3, the unpacks pair the lanes as
// Y5 = [a0 b0 a2 b2], Y6 = [a1 b1 a3 b3], Y7 = [c0 d0 c2 d2],
// Y8 = [c1 d1 c3 d3]; the permutes finish the 4×4 transpose into
// Y9–Y12 = the four rows' s0, s1, s2, s3; three vertical adds then
// associate every row exactly as the scalar reduction does.
#define GATHER_REDUCE \
	VUNPCKLPD  Y1, Y0, Y5; \
	VUNPCKHPD  Y1, Y0, Y6; \
	VUNPCKLPD  Y3, Y2, Y7; \
	VUNPCKHPD  Y3, Y2, Y8; \
	VPERM2F128 $0x20, Y7, Y5, Y9; \
	VPERM2F128 $0x20, Y8, Y6, Y10; \
	VPERM2F128 $0x31, Y7, Y5, Y11; \
	VPERM2F128 $0x31, Y8, Y6, Y12; \
	VADDPD     Y10, Y9, Y9; \
	VADDPD     Y11, Y9, Y9; \
	VADDPD     Y12, Y9, Y9

// func squaredL2BoundedGather4AVX2(dst *[4]float64, q, flat []float64, rows *[4]int32, bound float64)
//
// Four squaredL2Bounded passes in lockstep: dst[r] is what
// squaredL2BoundedAVX2(q, row rows[r] of flat, bound) returns, for any
// bound. Y0–Y3 accumulate one row each; at every stride-16 boundary
// the four partials are compared against the bound at once and a row
// passing it for the first time has its partial latched into Y13 (Y14
// is the per-row done mask; the greater-than predicate is ordered, so
// a NaN partial or bound keeps going like the scalar JBE). The scan
// stops when all four rows are done; otherwise the rows still open
// take their full sum. The caller validates the row indices against
// len(flat) and len(q) > 0.
TEXT ·squaredL2BoundedGather4AVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ q_base+8(FP), SI
	MOVQ q_len+16(FP), CX
	MOVQ flat_base+32(FP), BX
	MOVQ rows+56(FP), DX
	VBROADCASTSD bound+64(FP), Y15
	MOVQ CX, R12
	SHLQ $3, R12 // row size in bytes
	MOVLQSX 0(DX), R8
	IMULQ R12, R8
	ADDQ BX, R8
	MOVLQSX 4(DX), R9
	IMULQ R12, R9
	ADDQ BX, R9
	MOVLQSX 8(DX), R10
	IMULQ R12, R10
	ADDQ BX, R10
	MOVLQSX 12(DX), R11
	IMULQ R12, R11
	ADDQ BX, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-16, R13

ga_block:
	CMPQ AX, R13
	JGE  ga_mid_setup
	GATHER_STEP(0)
	GATHER_STEP(32)
	GATHER_STEP(64)
	GATHER_STEP(96)
	ADDQ $16, AX
	GATHER_REDUCE
	VCMPPD $0x1E, Y15, Y9, Y10 // partial > bound, false on NaN
	VANDNPD Y10, Y14, Y11      // rows passing the bound for the first time
	VBLENDVPD Y11, Y9, Y13, Y13
	VORPD Y10, Y14, Y14
	VMOVMSKPD Y14, DX
	CMPQ DX, $15
	JNE  ga_block
	JMP  ga_store // every row abandoned

ga_mid_setup:
	MOVQ CX, R13
	ANDQ $-4, R13

ga_mid:
	CMPQ AX, R13
	JGE  ga_reduce
	GATHER_STEP(0)
	ADDQ $4, AX
	JMP  ga_mid

ga_reduce:
	GATHER_REDUCE

ga_tail:
	CMPQ AX, CX
	JGE  ga_final
	VMOVSD (R8)(AX*8), X5
	VMOVHPD (R9)(AX*8), X5, X5
	VMOVSD (R10)(AX*8), X6
	VMOVHPD (R11)(AX*8), X6, X6
	VINSERTF128 $1, X6, Y5, Y5
	VBROADCASTSD (SI)(AX*8), Y4
	VSUBPD Y5, Y4, Y5
	VMULPD Y5, Y5, Y5
	VADDPD Y5, Y9, Y9
	INCQ AX
	JMP  ga_tail

ga_final:
	VBLENDVPD Y14, Y13, Y9, Y13 // done rows keep their latched partial

ga_store:
	VMOVUPD Y13, (DI)
	VZEROUPPER
	RET

// WIDEN_STEP is GATHER_STEP(0) over four float32 rows: elements [AX,
// AX+4) of the rows at R8–R11, widened to float64 as they are loaded,
// then subtracted from the shared query chunk, squared and added.
#define WIDEN_STEP \
	VMOVUPD   (SI)(AX*8), Y4; \
	VCVTPS2PD (R8)(AX*4), Y5; \
	VCVTPS2PD (R9)(AX*4), Y6; \
	VCVTPS2PD (R10)(AX*4), Y7; \
	VCVTPS2PD (R11)(AX*4), Y8; \
	VSUBPD    Y5, Y4, Y5; \
	VSUBPD    Y6, Y4, Y6; \
	VSUBPD    Y7, Y4, Y7; \
	VSUBPD    Y8, Y4, Y8; \
	VMULPD    Y5, Y5, Y5; \
	VMULPD    Y6, Y6, Y6; \
	VMULPD    Y7, Y7, Y7; \
	VMULPD    Y8, Y8, Y8; \
	VADDPD    Y5, Y0, Y0; \
	VADDPD    Y6, Y1, Y1; \
	VADDPD    Y7, Y2, Y2; \
	VADDPD    Y8, Y3, Y3

// func squaredL2ToManyAVX2(dst []float64, q []float64, flat []float32, dim int)
//
// One squaredL2 pass per float32 row, each element widened by
// VCVTPS2PD (exact) as it is loaded, the outer loop in assembly so the
// per-row call overhead vanishes and the flat buffer streams through
// in one address-ordered walk. Rows go four at a time while four are
// left (and a row fills a vector): one row is one chain of dependent
// adds — vector steps, the horizontal reduction, the scalar tail — and
// at the PM-tree's projected width the chain, not the arithmetic, sets
// the pace. Four rows in lockstep share each query load (WIDEN_STEP),
// reduce through one transpose and three vertical adds (GATHER_REDUCE),
// and take the dim%4 tail terms the same way: the squared differences
// of each row's last four elements, transposed, the columns belonging
// to the tail added in element order. Every row's sum associates as
// the single-row loop's, ((s0+s1)+s2)+s3 and then the tail terms one
// by one, so both loops return the bits squaredL2AVX2 returns for the
// widened row. The caller validates the shapes (len(dst) rows of dim
// values in flat, len(q) == dim > 0).
TEXT ·squaredL2ToManyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), R12
	MOVQ dst_len+8(FP), R13
	MOVQ q_base+24(FP), SI
	MOVQ flat_base+48(FP), R8
	MOVQ dim+72(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX
	MOVQ CX, BX
	SHLQ $2, BX // row size in bytes
	MOVQ CX, DI
	SUBQ DX, DI // tail terms per row, 0–3
	CMPQ CX, $4
	JL   tm_row

tm_four:
	CMPQ R13, $4
	JL   tm_row
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

tm_four_vec:
	CMPQ AX, DX
	JGE  tm_four_reduce
	WIDEN_STEP
	ADDQ $4, AX
	JMP  tm_four_vec

tm_four_reduce:
	GATHER_REDUCE
	TESTQ DI, DI
	JZ   tm_four_store

	// Squared differences of elements [dim-4, dim) of rows a–d, paired
	// as in GATHER_REDUCE: Y0 = [a0 b0 a2 b2], Y1 = [a1 b1 a3 b3],
	// Y2 = [c0 d0 c2 d2], Y3 = [c1 d1 c3 d3]. Lane 4-t is the first of
	// t tail terms.
	LEAQ -4(CX), AX
	VMOVUPD   (SI)(AX*8), Y4
	VCVTPS2PD (R8)(AX*4), Y5
	VCVTPS2PD (R9)(AX*4), Y6
	VCVTPS2PD (R10)(AX*4), Y7
	VCVTPS2PD (R11)(AX*4), Y8
	VSUBPD  Y5, Y4, Y5
	VSUBPD  Y6, Y4, Y6
	VSUBPD  Y7, Y4, Y7
	VSUBPD  Y8, Y4, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VUNPCKLPD Y6, Y5, Y0
	VUNPCKHPD Y6, Y5, Y1
	VUNPCKLPD Y8, Y7, Y2
	VUNPCKHPD Y8, Y7, Y3
	CMPQ DI, $3
	JL   tm_four_tail2
	VPERM2F128 $0x20, Y3, Y1, Y10
	VADDPD Y10, Y9, Y9

tm_four_tail2:
	CMPQ DI, $2
	JL   tm_four_tail1
	VPERM2F128 $0x31, Y2, Y0, Y10
	VADDPD Y10, Y9, Y9

tm_four_tail1:
	VPERM2F128 $0x31, Y3, Y1, Y10
	VADDPD Y10, Y9, Y9

tm_four_store:
	VMOVUPD Y9, (R12)
	ADDQ $32, R12
	LEAQ (R11)(BX*1), R8
	SUBQ $4, R13
	JMP  tm_four

tm_row:
	TESTQ R13, R13
	JLE  tm_done
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

tm_vec:
	CMPQ AX, DX
	JGE  tm_reduce
	VCVTPS2PD (R8)(AX*4), Y1
	VMOVUPD   (SI)(AX*8), Y2
	VSUBPD    Y1, Y2, Y1
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ $4, AX
	JMP  tm_vec

tm_reduce:
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X0
	VADDSD X2, X0, X0
	VUNPCKHPD X2, X2, X2
	VADDSD X2, X0, X0

tm_tail:
	CMPQ AX, CX
	JGE  tm_store
	VCVTSS2SD (R8)(AX*4), X1, X1
	VMOVSD    (SI)(AX*8), X2
	VSUBSD    X1, X2, X1
	VMULSD    X1, X1, X1
	VADDSD    X1, X0, X0
	INCQ AX
	JMP  tm_tail

tm_store:
	VMOVSD X0, (R12)
	ADDQ $8, R12
	ADDQ BX, R8
	DECQ R13
	JMP  tm_row

tm_done:
	VZEROUPPER
	RET

// DOT_STEP folds the products of elements [AX, AX+4) of the four rows
// at R8–R11 with the shared query chunk into their accumulators Y0–Y3.
#define DOT_STEP \
	VMOVUPD (SI)(AX*8), Y4; \
	VMULPD  (R8)(AX*8), Y4, Y5; \
	VMULPD  (R9)(AX*8), Y4, Y6; \
	VMULPD  (R10)(AX*8), Y4, Y7; \
	VMULPD  (R11)(AX*8), Y4, Y8; \
	VADDPD  Y5, Y0, Y0; \
	VADDPD  Y6, Y1, Y1; \
	VADDPD  Y7, Y2, Y2; \
	VADDPD  Y8, Y3, Y3

// func dotToManyAVX2(dst []float64, q, flat []float64, dim int)
//
// One dot pass per row. Four rows go in lockstep while four are left:
// each query chunk is loaded once for all four (DOT_STEP), every row
// keeps its own accumulator, the sums come out of one transpose
// (GATHER_REDUCE), and the dim%4 tail terms are added lane by lane in
// element order — row r's element and the query's, multiplied and
// added as dotAVX2's scalar tail does. So every row associates as
// dotAVX2 does and returns its bits; the leftover rows take the
// single-row loop. The caller validates the shapes (len(dst) rows of
// dim values in flat, len(q) == dim > 0).
TEXT ·dotToManyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), R12
	MOVQ dst_len+8(FP), R13
	MOVQ q_base+24(FP), SI
	MOVQ flat_base+48(FP), R8
	MOVQ dim+72(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX
	MOVQ CX, BX
	SHLQ $3, BX // row size in bytes

dm_four:
	CMPQ R13, $4
	JL   dm_row
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dm_four_vec:
	CMPQ AX, DX
	JGE  dm_four_reduce
	DOT_STEP
	ADDQ $4, AX
	JMP  dm_four_vec

dm_four_reduce:
	GATHER_REDUCE

dm_four_tail:
	CMPQ AX, CX
	JGE  dm_four_store
	VMOVSD  (R8)(AX*8), X5
	VMOVHPD (R9)(AX*8), X5, X5
	VMOVSD  (R10)(AX*8), X6
	VMOVHPD (R11)(AX*8), X6, X6
	VINSERTF128 $1, X6, Y5, Y5
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y9, Y9
	INCQ AX
	JMP  dm_four_tail

dm_four_store:
	VMOVUPD Y9, (R12)
	ADDQ $32, R12
	LEAQ (R11)(BX*1), R8
	SUBQ $4, R13
	JMP  dm_four

dm_row:
	TESTQ R13, R13
	JLE  dm_done
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

dm_vec:
	CMPQ AX, DX
	JGE  dm_reduce
	VMOVUPD (R8)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  dm_vec

dm_reduce:
	VEXTRACTF128 $1, Y0, X2
	VUNPCKHPD X0, X0, X3
	VADDSD X3, X0, X0
	VADDSD X2, X0, X0
	VUNPCKHPD X2, X2, X2
	VADDSD X2, X0, X0

dm_tail:
	CMPQ AX, CX
	JGE  dm_store
	VMOVSD (R8)(AX*8), X1
	VMULSD (SI)(AX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ AX
	JMP  dm_tail

dm_store:
	VMOVSD X0, (R12)
	ADDQ $8, R12
	ADDQ BX, R8
	DECQ R13
	JMP  dm_row

dm_done:
	VZEROUPPER
	RET

// func maxAbsDiffToManyAVX2(dst []float64, q, flat []float64, dim int)
//
// Per row, the portable kernel's sequential fold with the branch
// replaced by VMAXSD: its result is the first source when that compares
// strictly greater and the second source otherwise (NaNs and equal
// zeros included), so VMAXSD(term, acc) is `if term > acc { acc = term }`
// on every input. Rows are independent chains, which the out-of-order
// core overlaps; the pivot rows this serves are a handful of values
// wide, too short for a lane-parallel fold to pay for its reduction.
// The caller validates the shapes (len(dst) rows of dim values in flat,
// len(q) == dim > 0).
TEXT ·maxAbsDiffToManyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), R10
	MOVQ dst_len+8(FP), R11
	MOVQ q_base+24(FP), SI
	MOVQ flat_base+48(FP), DI
	MOVQ dim+72(FP), CX
	MOVQ $0x7FFFFFFFFFFFFFFF, AX // |x| clears the sign bit, as math.Abs does
	MOVQ AX, X15
	XORQ R9, R9

md_row:
	CMPQ R9, R11
	JGE  md_done
	VMOVSD (R10)(R9*8), X0
	XORQ AX, AX

md_col:
	CMPQ AX, CX
	JGE  md_store
	VMOVSD (SI)(AX*8), X1
	VSUBSD (DI)(AX*8), X1, X1
	VANDPD X15, X1, X1
	VMAXSD X0, X1, X0 // X1 > X0 ? X1 : X0
	INCQ AX
	JMP  md_col

md_store:
	VMOVSD X0, (R10)(R9*8)
	LEAQ (DI)(CX*8), DI
	INCQ R9
	JMP  md_row

md_done:
	RET
