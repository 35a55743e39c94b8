//go:build amd64 && !noasm

package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The AVX2 backend promises bit-identical results to the portable
// kernels. These tests pin that promise exhaustively: every kernel,
// every dimension from 1 through 130 (covering all vector/tail and
// abandon-block residues several times over) plus an embedding-sized
// 768, on unaligned slices, with values spanning many magnitudes.

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("host does not support AVX2; assembly backend untestable")
	}
}

func equivDims() []int {
	dims := make([]int, 0, 131)
	for d := 1; d <= 130; d++ {
		dims = append(dims, d)
	}
	return append(dims, 768)
}

func TestAVX2DotBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(601))
	for _, d := range equivDims() {
		for rep := 0; rep < 4; rep++ {
			a, b := testVector(rng, d), testVector(rng, d)
			got, want := dotAVX2(a, b), dotGeneric(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dot dim=%d: avx2=%v generic=%v", d, got, want)
			}
		}
	}
}

func TestAVX2SquaredL2BitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(602))
	for _, d := range equivDims() {
		for rep := 0; rep < 4; rep++ {
			a, b := testVector(rng, d), testVector(rng, d)
			got, want := squaredL2AVX2(a, b), squaredL2Generic(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("squaredL2 dim=%d: avx2=%v generic=%v", d, got, want)
			}
		}
	}
}

// TestAVX2BoundedBitIdentical pins both halves of the bounded
// contract: full passes match SquaredL2 bit for bit, and abandoning
// passes return the identical partial sum at the identical stride-16
// block boundary.
func TestAVX2BoundedBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(603))
	for _, d := range equivDims() {
		for rep := 0; rep < 4; rep++ {
			a, b := testVector(rng, d), testVector(rng, d)
			exact := squaredL2Generic(a, b)
			bounds := []float64{
				math.Inf(1),  // never abandons: full bit-identical pass
				exact * 2,    // never abandons
				exact,        // strict > comparison: still full pass
				exact * 0.75, // may abandon mid-scan
				exact * 0.25, // abandons early for d >= 16
				exact * 1e-3, // abandons at the first block
				math.SmallestNonzeroFloat64,
			}
			for _, bound := range bounds {
				if bound <= 0 { // constant-zero rows make exact == 0
					continue
				}
				got := squaredL2BoundedAVX2(a, b, bound)
				want := squaredL2BoundedGeneric(a, b, bound)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("bounded dim=%d bound=%v: avx2=%v generic=%v (exact=%v)",
						d, bound, got, want, exact)
				}
				if (got > bound) != (want > bound) {
					t.Fatalf("bounded dim=%d bound=%v: abandon disagreement avx2=%v generic=%v",
						d, bound, got, want)
				}
			}
		}
	}
}

// TestAVX2GatherBitIdentical pins the four-row kernel against the
// portable per-row loop over whole and padded groups, with rows that
// abandon at different blocks (or not at all) sharing a group, and at
// the non-positive bounds only the gather entry point lets through.
func TestAVX2GatherBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(608))
	for _, d := range equivDims() {
		const nrows = 6
		q, flat := testVector(rng, d), testVector(rng, nrows*d)
		exact := make([]float64, nrows)
		for r := range exact {
			exact[r] = squaredL2Generic(q, flat[r*d:(r+1)*d])
		}
		for n := 0; n <= 9; n++ {
			rows := make([]int32, n)
			for j := range rows {
				rows[j] = int32(rng.Intn(nrows))
			}
			pivot := exact[rng.Intn(nrows)]
			for _, bound := range []float64{math.Inf(1), math.NaN(), pivot, pivot * 0.5, pivot * 1e-3, 0, -1} {
				got, want := make([]float64, n), make([]float64, n)
				squaredL2BoundedGatherAVX2(got, q, flat, rows, bound)
				squaredL2BoundedGatherGeneric(want, q, flat, rows, bound)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("gather dim=%d n=%d bound=%v row %d: avx2=%v generic=%v (exact=%v)",
							d, n, bound, rows[j], got[j], want[j], exact[rows[j]])
					}
				}
			}
		}
	}
}

func TestAVX2ToManyBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(604))
	for _, d := range equivDims() {
		rows := 1 + rng.Intn(7)
		q := testVector(rng, d)
		flat := testVector32(rng, rows*d)
		got := make([]float64, rows)
		want := make([]float64, rows)
		squaredL2ToManyAVX2(got, q, flat, d)
		squaredL2ToManyGeneric(want, q, flat, d)
		for r := range got {
			single := squaredL2AVX2(q, widen(flat[r*d:(r+1)*d]))
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) || math.Float64bits(got[r]) != math.Float64bits(single) {
				t.Fatalf("toMany dim=%d row=%d: avx2=%v generic=%v squaredL2 of the widened row=%v", d, r, got[r], want[r], single)
			}
		}
	}
}

// TestAVX2ToManyFourRowGroups sweeps the batch kernel's two loops: every
// row width's tail length against every split of the rows into groups
// of four and single-row leftovers, then rows of special values beside
// finite ones in one group (a NaN or infinite sum must stay in its
// lane).
func TestAVX2ToManyFourRowGroups(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(609))
	check := func(label string, q []float64, flat []float32, d int) {
		t.Helper()
		rows := len(flat) / d
		got, want := make([]float64, rows), make([]float64, rows)
		squaredL2ToManyAVX2(got, q, flat, d)
		squaredL2ToManyGeneric(want, q, flat, d)
		for r := range got {
			if !sameBits(got[r], want[r]) {
				t.Fatalf("%s dim=%d rows=%d row=%d: avx2=%v generic=%v", label, d, rows, r, got[r], want[r])
			}
		}
	}
	for d := 1; d <= 40; d++ {
		for rows := 0; rows <= 13; rows++ {
			check("toMany", testVector(rng, d), testVector32(rng, rows*d), d)
		}
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1))}
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(20)
		q, flat := testVector(rng, d), testVector32(rng, 9*d)
		for i := 0; i < 4; i++ {
			flat[rng.Intn(len(flat))] = specials[rng.Intn(len(specials))]
		}
		q[rng.Intn(d)] = []float64{math.MaxFloat64, math.NaN(), 5e-324}[rng.Intn(3)]
		check("toMany specials", q, flat, d)
	}
}

// TestAVX2DotToManyBitIdentical pins the lockstep projection kernel to
// one dot per row: every width from 1 through 130 (the inner-product
// reduction's extra coordinate makes odd widths real) and 768, against
// every row count from 1 through 33, so whole groups of four, leftover
// rows and every tail length meet.
func TestAVX2DotToManyBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(610))
	for _, d := range equivDims() {
		for m := 1; m <= 33; m++ {
			q, flat := testVector(rng, d), testVector(rng, m*d)
			got, want := make([]float64, m), make([]float64, m)
			dotToManyAVX2(got, q, flat, d)
			dotToManyGeneric(want, q, flat, d)
			for r := range got {
				single := dotAVX2(flat[r*d:(r+1)*d], q)
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) || math.Float64bits(got[r]) != math.Float64bits(single) {
					t.Fatalf("dotToMany dim=%d m=%d row=%d: avx2=%v generic=%v dot=%v", d, m, r, got[r], want[r], single)
				}
			}
		}
	}
}

// TestAVX2MaxAbsDiffToManyBitIdentical sweeps every row width from 1
// through 33 against every batch size from 0 through 17 rows, with
// seeds on both sides of the row maxima.
func TestAVX2MaxAbsDiffToManyBitIdentical(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(607))
	for d := 1; d <= 33; d++ {
		for rows := 0; rows <= 17; rows++ {
			q := testVector(rng, d)
			flat := testVector(rng, rows*d)
			got := testVector(rng, rows)
			for r := range got {
				got[r] = math.Abs(got[r])
			}
			want := append([]float64(nil), got...)
			maxAbsDiffToManyAVX2(got, q, flat, d)
			maxAbsDiffToManyGeneric(want, q, flat, d)
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("maxAbsDiffToMany dim=%d rows=%d row=%d: avx2=%v generic=%v",
						d, rows, r, got[r], want[r])
				}
			}
		}
	}
}

// sameBits reports whether two results are bit-identical, treating any
// two NaNs as equal: NaN payload bits are not pinned by the contract
// (the Go compiler may commute float operands, which changes which
// payload an x86 arithmetic instruction propagates).
func sameBits(g, w float64) bool {
	return math.Float64bits(g) == math.Float64bits(w) ||
		(math.IsNaN(g) && math.IsNaN(w))
}

// TestAVX2SpecialValues runs the kernels over NaN, infinities,
// denormals, and signed zeros: the backends must propagate them
// identically (any NaN matching any NaN).
func TestAVX2SpecialValues(t *testing.T) {
	requireAVX2(t)
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 5e-324, 1e-308,
	}
	rng := rand.New(rand.NewSource(605))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(40)
		a, b := make([]float64, d), make([]float64, d)
		for i := range a {
			a[i] = specials[rng.Intn(len(specials))]
			b[i] = specials[rng.Intn(len(specials))]
		}
		if g, w := dotAVX2(a, b), dotGeneric(a, b); !sameBits(g, w) {
			t.Fatalf("dot specials d=%d: avx2=%v generic=%v (a=%v b=%v)", d, g, w, a, b)
		}
		if g, w := squaredL2AVX2(a, b), squaredL2Generic(a, b); !sameBits(g, w) {
			t.Fatalf("squaredL2 specials d=%d: avx2=%v generic=%v (a=%v b=%v)", d, g, w, a, b)
		}
		// One row, seeded with another special: the fold must ignore NaN
		// terms, keep a NaN seed, and never prefer an equal zero.
		for _, seed := range specials {
			g, w := []float64{seed}, []float64{seed}
			maxAbsDiffToManyAVX2(g, a, b, d)
			maxAbsDiffToManyGeneric(w, a, b, d)
			if !sameBits(g[0], w[0]) {
				t.Fatalf("maxAbsDiffToMany specials d=%d seed=%v: avx2=%v generic=%v (a=%v b=%v)",
					d, seed, g[0], w[0], a, b)
			}
		}
		for _, bound := range []float64{1, math.Inf(1), math.NaN()} {
			g := squaredL2BoundedAVX2(a, b, bound)
			w := squaredL2BoundedGeneric(a, b, bound)
			if !sameBits(g, w) {
				t.Fatalf("bounded specials d=%d bound=%v: avx2=%v generic=%v (a=%v b=%v)",
					d, bound, g, w, a, b)
			}
			// The same row beside a finite one in a gathered group: a
			// NaN or infinite partial must not disturb its neighbours.
			flat := append(append([]float64(nil), b...), make([]float64, d)...)
			gs, ws := make([]float64, 3), make([]float64, 3)
			squaredL2BoundedGatherAVX2(gs, a, flat, []int32{0, 1, 0}, bound)
			squaredL2BoundedGatherGeneric(ws, a, flat, []int32{0, 1, 0}, bound)
			for j := range gs {
				if !sameBits(gs[j], ws[j]) || !sameBits(gs[0], g) {
					t.Fatalf("gather specials d=%d bound=%v: avx2=%v generic=%v single=%v (a=%v b=%v)",
						d, bound, gs, ws, g, a, b)
				}
			}
		}
	}
}

// TestDispatchedKernelsMatchGeneric exercises the exported entry points
// against the portable kernels with the backend as detected, so the
// dispatch wiring itself (not just the assembly) is covered.
func TestDispatchedKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for _, d := range equivDims() {
		a, b := testVector(rng, d), testVector(rng, d)
		if g, w := Dot(a, b), dotGeneric(a, b); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("Dot dim=%d: dispatched=%v generic=%v", d, g, w)
		}
		if g, w := SquaredL2(a, b), squaredL2Generic(a, b); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("SquaredL2 dim=%d: dispatched=%v generic=%v", d, g, w)
		}
		flat := testVector(rng, 5*d)
		dots := make([]float64, 5)
		DotToMany(dots, a, flat, d)
		for r, g := range dots {
			if w := dotGeneric(flat[r*d:(r+1)*d], a); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("DotToMany dim=%d row %d: dispatched=%v generic=%v", d, r, g, w)
			}
		}
		rows32 := testVector32(rng, 5*d)
		d2s := SquaredL2ToMany(nil, a, rows32, d)
		for r, g := range d2s {
			if w := squaredL2Generic(a, widen(rows32[r*d:(r+1)*d])); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("SquaredL2ToMany dim=%d row %d: dispatched=%v generic=%v", d, r, g, w)
			}
		}
		exact := squaredL2Generic(a, b)
		for _, bound := range []float64{exact * 0.5, exact * 2} {
			if bound <= 0 {
				continue
			}
			g := SquaredL2Bounded(a, b, bound)
			w := squaredL2BoundedGeneric(a, b, bound)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("SquaredL2Bounded dim=%d bound=%v: dispatched=%v generic=%v", d, bound, g, w)
			}
		}
	}
}

// TestBackendName sanity-checks the reported backend string against the
// dispatch flag.
func TestBackendName(t *testing.T) {
	want := "generic"
	if useAVX2 {
		want = "avx2"
	}
	if got := Backend(); got != want {
		t.Fatalf("Backend() = %q, want %q", got, want)
	}
}

// TestForcedGenericDispatch swaps the portable kernels into the
// dispatch variables and checks the exported entry points follow.
func TestForcedGenericDispatch(t *testing.T) {
	savedImpl, savedName := squaredL2Impl, backendName
	defer func() { squaredL2Impl, backendName = savedImpl, savedName }()
	squaredL2Impl, backendName = squaredL2Generic, "generic"
	if Backend() != "generic" {
		t.Fatalf("Backend() = %q with dispatch forced off", Backend())
	}
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	if g, w := SquaredL2(a, b), squaredL2Generic(a, b); g != w {
		t.Fatalf("forced-generic SquaredL2 = %v, want %v", g, w)
	}
}
