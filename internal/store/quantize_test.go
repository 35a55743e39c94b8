package store

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// End-to-end codec soundness: whatever the data and churn history, a
// codec lower bound must never exceed the exact squared distance for
// any live row (that is the whole correctness contract of screening —
// reject-only). These tests drive the real Store/Codec paths the index
// uses: SetQuantize over existing rows, Append into a live codec,
// Delete + recycle, RestoreCodec.

func randStore(t *testing.T, rng *rand.Rand, n, dim int, spread float64) *Store {
	t.Helper()
	s, err := New(dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = (rng.Float64()*2 - 1) * spread * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if _, err := s.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func checkCodecSound(t *testing.T, s *Store, rng *rand.Rand, queries int) {
	t.Helper()
	c := s.Codec()
	if c == nil {
		t.Fatal("codec missing")
	}
	dim := s.Dim()
	for qi := 0; qi < queries; qi++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = (rng.Float64()*2 - 1) * 10
		}
		for i := 0; i < s.Len(); i++ {
			if !s.IsLive(i) {
				continue
			}
			exact := vec.SquaredL2(q, s.Row(i))
			if math.IsNaN(exact) || math.IsInf(exact, 0) {
				continue
			}
			if lb := c.QueryLowerBound(q, i, math.Inf(1)); lb > exact {
				t.Fatalf("row %d: lb=%v > exact=%v (kind=%v)", i, lb, exact, c.Kind())
			}
			// Abandoning scans must still only reject truly-worse rows.
			for _, frac := range []float64{0.25, 1, 4} {
				bound := exact * frac
				if bound <= 0 {
					continue
				}
				if lb := c.QueryLowerBound(q, i, bound); lb > bound && exact <= bound {
					t.Fatalf("row %d bound=%v: wrongful reject lb=%v exact=%v", i, bound, lb, exact)
				}
			}
		}
	}
	// Pair bounds over a sample of live row pairs.
	live := []int{}
	for i := 0; i < s.Len(); i++ {
		if s.IsLive(i) {
			live = append(live, i)
		}
	}
	for trial := 0; trial < 200 && len(live) >= 2; trial++ {
		r1 := live[rng.Intn(len(live))]
		r2 := live[rng.Intn(len(live))]
		if r1 == r2 {
			continue
		}
		exact := vec.SquaredL2(s.Row(r1), s.Row(r2))
		if math.IsNaN(exact) || math.IsInf(exact, 0) {
			continue
		}
		if lb := c.PairLowerBound(r1, r2, math.Inf(1)); lb > exact {
			t.Fatalf("pair (%d,%d): lb=%v > exact=%v (kind=%v)", r1, r2, lb, exact, c.Kind())
		}
	}
}

func TestCodecSoundness(t *testing.T) {
	for _, kind := range []QuantKind{QuantF32, QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(801))
			for _, dim := range []int{1, 3, 17, 64} {
				s := randStore(t, rng, 120, dim, 5)
				s.SetQuantize(kind)
				checkCodecSound(t, s, rng, 4)
			}
		})
	}
}

// TestCodecSoundnessUnderChurn: deletes, appends, and
// appends OUTSIDE the fitted i8 range (clamped codes, widened slack)
// must all keep the bound sound.
func TestCodecSoundnessUnderChurn(t *testing.T) {
	for _, kind := range []QuantKind{QuantF32, QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(802))
			dim := 24
			s := randStore(t, rng, 150, dim, 2)
			s.SetQuantize(kind)
			for round := 0; round < 3; round++ {
				for i := 0; i < 30; i++ {
					victim := rng.Intn(s.Len())
					if s.IsLive(victim) {
						if err := s.Delete(victim); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 40; i++ {
					row := make([]float64, dim)
					for j := range row {
						// 10× beyond the fitted range half the time.
						row[j] = (rng.Float64()*2 - 1) * 2 * math.Pow(10, float64(rng.Intn(2)))
					}
					if _, err := s.Append(row); err != nil {
						t.Fatal(err)
					}
				}
				checkCodecSound(t, s, rng, 2)
			}
		})
	}
}

// TestCodecAdversarialData: constant dimensions, huge magnitude
// spreads, denormals, and non-finite rows. Finite rows must keep sound
// bounds; poisoned dimensions must disarm rather than mis-reject.
func TestCodecAdversarialData(t *testing.T) {
	rows := [][]float64{
		{7, 7, 1e300, 5e-324, 0, -1e-12, 3, 1},
		{7, 7, -1e300, -5e-324, 0, 1e-12, 3, 2},
		{7, 7, 1e299, 1e-320, 0, 0, 3, 3},
		{7, 7, 0, 0, 0, 5e5, 3, math.Inf(1)},
		{7, 7, 2, 1, 0, -5e5, 3, math.NaN()},
	}
	for _, kind := range []QuantKind{QuantF32, QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			s, err := FromRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			s.SetQuantize(kind)
			rng := rand.New(rand.NewSource(803))
			checkCodecSound(t, s, rng, 6)
			// A query right on a stored row: exact = 0, so NO bound may
			// be exceeded (the screen must return ≤ 0 + slack effects).
			c := s.Codec()
			q := append([]float64(nil), rows[0]...)
			if lb := c.QueryLowerBound(q, 0, math.Inf(1)); lb > 0 {
				t.Fatalf("self-distance lower bound must be 0, got %v", lb)
			}
		})
	}
}

// TestCodecRestoreRoundTrip: persisting Params() and re-deriving codes
// on a reloaded store must reproduce bit-identical screen bounds.
func TestCodecRestoreRoundTrip(t *testing.T) {
	for _, kind := range []QuantKind{QuantF32, QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(804))
			dim := 19
			s := randStore(t, rng, 80, dim, 3)
			// Some churn before quantizing, and some after.
			for i := 0; i < 10; i++ {
				s.Delete(rng.Intn(s.Len()))
			}
			s.SetQuantize(kind)
			for i := 0; i < 15; i++ {
				row := make([]float64, dim)
				for j := range row {
					row[j] = rng.NormFloat64() * 4
				}
				s.Append(row)
			}
			off, scale, slack := s.Codec().Params()

			flat := append([]float64(nil), s.Flat()...)
			s2, err := FromFlat(flat, dim)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.RestoreDeadRows(append([]int32(nil), s.DeadRows()...)); err != nil {
				t.Fatal(err)
			}
			if err := s2.RestoreCodec(kind,
				append([]float64(nil), off...),
				append([]float64(nil), scale...),
				append([]float64(nil), slack...)); err != nil {
				t.Fatal(err)
			}
			c1, c2 := s.Codec(), s2.Codec()
			for qi := 0; qi < 20; qi++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.NormFloat64() * 5
				}
				row := rng.Intn(s.Len())
				for _, bound := range []float64{math.Inf(1), 1, 100} {
					a := c1.QueryLowerBound(q, row, bound)
					b := c2.QueryLowerBound(q, row, bound)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("restored codec diverges: row=%d bound=%v %v vs %v", row, bound, a, b)
					}
				}
			}
			for trial := 0; trial < 50; trial++ {
				r1, r2 := rng.Intn(s.Len()), rng.Intn(s.Len())
				a := c1.PairLowerBound(r1, r2, math.Inf(1))
				b := c2.PairLowerBound(r1, r2, math.Inf(1))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("restored pair bound diverges: (%d,%d) %v vs %v", r1, r2, a, b)
				}
			}
		})
	}
}

func TestCodecRestoreValidation(t *testing.T) {
	s, _ := New(4)
	if err := s.RestoreCodec(QuantF32, nil, nil, []float64{0, 0, 0}); err == nil {
		t.Fatal("want error on short slack")
	}
	if err := s.RestoreCodec(QuantF32, []float64{0, 0, 0, 0}, nil, make([]float64, 4)); err == nil {
		t.Fatal("want error on affine params for f32")
	}
	if err := s.RestoreCodec(QuantI8, nil, nil, make([]float64, 4)); err == nil {
		t.Fatal("want error on missing affine params for i8")
	}
	if err := s.RestoreCodec(QuantKind(9), nil, nil, make([]float64, 4)); err == nil {
		t.Fatal("want error on unknown kind")
	}
	if err := s.RestoreCodec(QuantNone, nil, nil, nil); err != nil {
		t.Fatalf("QuantNone restore: %v", err)
	}
	if s.Codec() != nil {
		t.Fatal("QuantNone restore must drop the codec")
	}
}

func TestQuantKindStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		kind QuantKind
		name string
	}{{QuantNone, "none"}, {QuantF32, "f32"}, {QuantI8, "i8"}} {
		if tc.kind.String() != tc.name {
			t.Errorf("String(%d) = %q", tc.kind, tc.kind.String())
		}
		k, err := ParseQuantKind(tc.name)
		if err != nil || k != tc.kind {
			t.Errorf("ParseQuantKind(%q) = %v, %v", tc.name, k, err)
		}
	}
	if _, err := ParseQuantKind("int4"); err == nil {
		t.Error("want error for unknown kind")
	}
	if k, err := ParseQuantKind(""); err != nil || k != QuantNone {
		t.Errorf("empty spelling should mean none, got %v, %v", k, err)
	}
	if got := QuantKind(42).String(); got != "QuantKind(42)" {
		t.Errorf("unknown String() = %q", got)
	}
}

func TestCodecAccessors(t *testing.T) {
	s, _ := New(3)
	if s.Quantize() != QuantNone || s.Codec() != nil {
		t.Fatal("fresh store must have no codec")
	}
	s.Append([]float64{1, 2, 3})
	s.SetQuantize(QuantI8)
	if s.Quantize() != QuantI8 {
		t.Fatalf("Quantize() = %v", s.Quantize())
	}
	c := s.Codec()
	if c == nil || c.Kind() != QuantI8 {
		t.Fatal("codec accessor broken")
	}
	if got := c.MemoryBytes(); got != 3 {
		t.Fatalf("i8 MemoryBytes = %d, want 3", got)
	}
	s.SetQuantize(QuantF32)
	if got := s.Codec().MemoryBytes(); got != 12 {
		t.Fatalf("f32 MemoryBytes = %d, want 12", got)
	}
	s.SetQuantize(QuantNone)
	if s.Codec() != nil {
		t.Fatal("SetQuantize(none) must drop the codec")
	}
}

// TestCodecHandedOutIsNeverEdited: what Codec returned before an Append
// keeps its slack and covers its own slots for good — an Append whose
// row lies outside the fitted range widens a copy — so a reader may
// screen against it while the store grows.
func TestCodecHandedOutIsNeverEdited(t *testing.T) {
	for _, kind := range []QuantKind{QuantF32, QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(805))
			s := randStore(t, rng, 60, 5, 2)
			s.SetQuantize(kind)
			held := s.Codec()
			_, _, slack := held.Params()
			slackWas := append([]float64(nil), slack...)
			bytesWas := held.MemoryBytes()
			q := []float64{1, -1, 0.5, 0, 2}
			boundWas := held.QueryLowerBound(q, 17, math.Inf(1))

			if _, err := s.Append([]float64{1e6, -1e6, 3e5, 1e-9, 7e6}); err != nil {
				t.Fatal(err)
			}
			_, _, slack = held.Params()
			for j := range slack {
				if slack[j] != slackWas[j] {
					t.Fatalf("dim %d: the held codec's slack went from %v to %v", j, slackWas[j], slack[j])
				}
			}
			if held.MemoryBytes() != bytesWas || held.QueryLowerBound(q, 17, math.Inf(1)) != boundWas {
				t.Fatal("the held codec changed under an Append")
			}
			now := s.Codec()
			if now == held || now.MemoryBytes() <= bytesWas {
				t.Fatal("Append did not install a successor codec covering the new row")
			}
			if kind == QuantI8 { // clamped codes: the successor's slack had to widen
				_, _, wide := now.Params()
				if !(wide[0] > slackWas[0]) {
					t.Fatalf("the successor's slack %v did not widen past %v", wide[0], slackWas[0])
				}
			}
			checkCodecSound(t, s, rng, 4)
		})
	}
}
