package store

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// Scalar-quantized row codec: an optional sidecar of compressed codes
// maintained alongside the exact float64 buffer, from which a provable
// LOWER bound on the true squared L2 distance can be computed on 4×
// (float32) or 8× (int8) less memory bandwidth. Verification paths use
// the bound to reject candidates that cannot beat the current best
// distance and fall back to the exact row for survivors — the screen
// is reject-only, so query answers are element-wise identical to the
// unscreened path.
//
// The soundness argument: every encoded row satisfies
// |row[j] − decode(code[j])| ≤ slack[j] per dimension (slack is the
// running maximum of the measured encoding error, inflated for the
// measurement's own rounding), so by the reverse triangle inequality
// |q[j] − row[j]| ≥ |q[j] − decode(code[j])| − slack[j], and summing
// max(0, ·)² terms lower-bounds the squared distance. The screening
// kernels (vec.ScreenLowerBoundI8/F32 and the pair variants) scale the
// accumulated sum by a safety factor that covers their own float
// rounding, so the computed bound never exceeds the exact distance.
//
// Non-finite data degrades gracefully: an Inf or NaN component drives
// that dimension's slack to +Inf/NaN, whose screen term is 0 — the
// screen loses power there but never rejects wrongly.

// QuantKind selects the quantized row codec maintained by a Store.
type QuantKind uint8

const (
	// QuantNone maintains no codec (the default).
	QuantNone QuantKind = iota
	// QuantF32 stores one float32 per component (4× bandwidth
	// reduction, near-lossless slack).
	QuantF32
	// QuantI8 stores one int8 per component under a per-dimension
	// affine map fitted to the data's range at codec-build time (8×
	// bandwidth reduction).
	QuantI8
)

// String names the kind the way the -quantize flags spell it.
func (k QuantKind) String() string {
	switch k {
	case QuantNone:
		return "none"
	case QuantF32:
		return "f32"
	case QuantI8:
		return "i8"
	}
	return fmt.Sprintf("QuantKind(%d)", uint8(k))
}

// ParseQuantKind parses the -quantize flag spellings.
func ParseQuantKind(s string) (QuantKind, error) {
	switch s {
	case "none", "":
		return QuantNone, nil
	case "f32":
		return QuantF32, nil
	case "i8":
		return QuantI8, nil
	}
	return QuantNone, fmt.Errorf("store: unknown quantization kind %q (want none, f32 or i8)", s)
}

// slackInflate covers the rounding of the error measurement itself:
// the measured |x − decode(code)| is a float64 subtraction that can
// round down by half an ulp, so the stored slack is the measured value
// times this factor.
const slackInflate = 1 + 1.0/(1<<40)

// pairEps covers the i8 pair screen's shortcut |y1−y2| ≈ scale·|c1−c2|:
// the two decodes each round relative to their own magnitude
// (|off| + 127·scale), so their exact difference can deviate from
// scale·Δc by a few ulps of that magnitude even when both decodes are
// error-free. The pair slack absorbs it as (|off| + 256·scale)·pairEps
// — a ~8000× margin over the worst-case 4·2⁻⁵³ deviation.
const pairEps = 1.0 / (1 << 40)

// Codec is the quantized sidecar of a Store: one code per component
// plus the per-dimension decode parameters and error slack the
// screening kernels need. It is owned and kept in sync by the Store
// (Append encodes the new row; SetQuantize/RestoreCodec build it).
//
// A Codec the Store has handed out is never edited: Append installs a
// successor (appended) that shares the code arrays — the new row's
// codes land past the slots the old one covers — and takes its own
// copy of the slack arrays before widening them. A reader screens
// against the Codec it took for as long as it likes.
type Codec struct {
	kind  QuantKind
	dim   int
	off   []float64 // QuantI8: per-dim affine offset; decode = off + scale·code
	scale []float64 // QuantI8: per-dim affine scale
	slack []float64 // per-dim error bound over every row encoded under it
	// slack2[j] is the pair-screen slack: 2·slack[j] (two encoded rows
	// each contribute slack[j] of error), plus scale[j]·pairEps for
	// QuantI8 (see pairEps).
	slack2 []float64
	f32    []float32 // QuantF32 codes, Len()·dim
	i8     []int8    // QuantI8 codes, Len()·dim
	// sharedSlack: slack and slack2 are a predecessor's arrays, to be
	// copied before raiseSlack writes to them.
	sharedSlack bool
}

// Kind returns the codec's quantization kind: QuantNone for no codec.
func (c *Codec) Kind() QuantKind {
	if c == nil {
		return QuantNone
	}
	return c.kind
}

// Params returns the per-dimension decode offsets and scales (nil for
// QuantF32) and the error slack. Read-only; the serialization layer
// persists exactly these — codes are re-derived on load.
func (c *Codec) Params() (off, scale, slack []float64) { return c.off, c.scale, c.slack }

// MemoryBytes returns the sidecar's code storage size in bytes.
func (c *Codec) MemoryBytes() int {
	return len(c.f32)*4 + len(c.i8)
}

// ensureSlots grows the code buffer to cover n slots.
func (c *Codec) ensureSlots(n int) {
	want := n * c.dim
	switch c.kind {
	case QuantF32:
		c.f32 = append(c.f32, make([]float32, max(0, want-len(c.f32)))...)
	case QuantI8:
		c.i8 = append(c.i8, make([]int8, max(0, want-len(c.i8)))...)
	}
}

// appended returns the codec that covers one more slot, holding row's
// codes, and leaves c as it is (see Codec).
func (c *Codec) appended(row []float64) *Codec {
	n := *c
	n.sharedSlack = true
	slot := (len(c.f32) + len(c.i8)) / c.dim
	n.ensureSlots(slot + 1)
	n.encode(slot, row, true)
	return &n
}

// encode writes slot's codes from row. When updateSlack is set the
// per-dimension slack is raised to cover this row's measured encoding
// error (it never shrinks — rows encoded earlier still rely on it).
// The decode expression here must match the screening kernels'
// arithmetic exactly: the slack bounds the error of THAT decode.
func (c *Codec) encode(slot int, row []float64, updateSlack bool) {
	base := slot * c.dim
	switch c.kind {
	case QuantF32:
		for j, x := range row {
			y := float32(x)
			c.f32[base+j] = y
			if updateSlack {
				c.raiseSlack(j, math.Abs(x-float64(y)))
			}
		}
	case QuantI8:
		for j, x := range row {
			var code int8
			if sc := c.scale[j]; sc > 0 {
				q := math.Round((x - c.off[j]) / sc)
				switch {
				case q < -127:
					q = -127
				case q > 127:
					q = 127
				case math.IsNaN(q):
					q = 0
				}
				code = int8(q)
			}
			c.i8[base+j] = code
			if updateSlack {
				// Two statements so this cannot fuse into an FMA: the
				// screening kernels decode with a separate mul and add,
				// and slack must bound the error of that exact decode.
				p := c.scale[j] * float64(code)
				y := c.off[j] + p
				c.raiseSlack(j, math.Abs(x-y))
			}
		}
	}
}

// raiseSlack lifts dimension j's slack to cover a measured error e.
func (c *Codec) raiseSlack(j int, e float64) {
	e *= slackInflate
	if e > c.slack[j] || math.IsNaN(e) {
		if c.sharedSlack {
			c.slack, c.slack2 = slices.Clone(c.slack), slices.Clone(c.slack2)
			c.sharedSlack = false
		}
		c.slack[j] = e
		c.slack2[j] = c.pairSlack(j, e)
	}
}

// pairSlack derives dimension j's pair-screen slack from its per-row
// slack e. For QuantI8 it is floored by the decode-magnitude term even
// when e is zero — see pairEps.
func (c *Codec) pairSlack(j int, e float64) float64 {
	s2 := 2 * e
	if c.kind == QuantI8 {
		s2 += (math.Abs(c.off[j]) + 256*c.scale[j]) * pairEps
	}
	return s2
}

// QueryLowerBound returns a provable lower bound on the squared L2
// distance between q and the row encoded at slot, abandoning the scan
// once the partial bound exceeds bound (the return value is then still
// a valid lower bound of the full distance). A return value strictly
// greater than bound proves the exact squared distance exceeds bound.
func (c *Codec) QueryLowerBound(q []float64, slot int, bound float64) float64 {
	base := slot * c.dim
	switch c.kind {
	case QuantF32:
		return vec.ScreenLowerBoundF32(q, c.f32[base:base+c.dim:base+c.dim], c.slack, bound)
	case QuantI8:
		return vec.ScreenLowerBoundI8(q, c.i8[base:base+c.dim:base+c.dim], c.off, c.scale, c.slack, bound)
	}
	return 0
}

// PairLowerBound returns a provable lower bound on the squared L2
// distance between the rows encoded at slots r1 and r2, with the same
// abandoning contract as QueryLowerBound.
func (c *Codec) PairLowerBound(r1, r2 int, bound float64) float64 {
	b1, b2 := r1*c.dim, r2*c.dim
	switch c.kind {
	case QuantF32:
		return vec.ScreenPairLowerBoundF32(
			c.f32[b1:b1+c.dim:b1+c.dim], c.f32[b2:b2+c.dim:b2+c.dim], c.slack2, bound)
	case QuantI8:
		return vec.ScreenPairLowerBoundI8(
			c.i8[b1:b1+c.dim:b1+c.dim], c.i8[b2:b2+c.dim:b2+c.dim], c.scale, c.slack2, bound)
	}
	return 0
}

// Quantize returns the kind of the store's codec (QuantNone when no
// codec is maintained).
func (s *Store) Quantize() QuantKind { return s.codec.Kind() }

// Codec returns the store's quantized sidecar as it stands, nil when
// none is maintained. What it returns never changes (see Codec): it
// covers the rows appended so far.
func (s *Store) Codec() *Codec { return s.codec }

// SetQuantize builds (or drops, for QuantNone) the quantized sidecar.
// For QuantI8 the per-dimension affine parameters are fitted to the
// min/max range of the rows live NOW — rows appended later are clamped
// into that range and widen the error slack instead (correct but
// looser), so callers should quantize after loading the bulk of the
// data, and Compact rebuilds the codec to refit. Every row (live or
// dead) is encoded; slack only reflects live rows. The codec is built
// afresh: one handed out earlier stays what it was.
func (s *Store) SetQuantize(kind QuantKind) {
	if kind == QuantNone {
		s.codec = nil
		return
	}
	c := &Codec{kind: kind, dim: s.dim}
	c.slack = make([]float64, s.dim)
	c.slack2 = make([]float64, s.dim)
	if kind == QuantI8 {
		c.off = make([]float64, s.dim)
		c.scale = make([]float64, s.dim)
		s.fitAffine(c)
		for j := range c.slack2 {
			c.slack2[j] = c.pairSlack(j, 0)
		}
	}
	s.codec = c
	s.encodeAll(c)
}

// RestoreCodec installs a codec with previously persisted parameters
// (off and scale must be nil for QuantF32, dim-length for QuantI8;
// slack is dim-length) and re-derives every slot's codes by re-encoding
// the flat buffer — encoding is deterministic given the parameters, so
// a loaded store screens exactly like the saved one. The given slack is
// kept as-is: it already covers every live row (it can only have been
// measured looser, never tighter, than a fresh encode of the current
// rows).
func (s *Store) RestoreCodec(kind QuantKind, off, scale, slack []float64) error {
	if kind == QuantNone {
		s.codec = nil
		return nil
	}
	if len(slack) != s.dim {
		return fmt.Errorf("store: RestoreCodec slack has %d dims, store has %d", len(slack), s.dim)
	}
	switch kind {
	case QuantF32:
		if off != nil || scale != nil {
			return fmt.Errorf("store: RestoreCodec of %v does not take affine params", kind)
		}
	case QuantI8:
		if len(off) != s.dim || len(scale) != s.dim {
			return fmt.Errorf("store: RestoreCodec of %v needs dim-length affine params", kind)
		}
	default:
		return fmt.Errorf("store: RestoreCodec of unknown kind %d", uint8(kind))
	}
	c := &Codec{kind: kind, dim: s.dim, off: off, scale: scale, slack: slack}
	c.slack2 = make([]float64, s.dim)
	for j, e := range slack {
		c.slack2[j] = c.pairSlack(j, e)
	}
	s.codec = c
	s.encodeAll(c)
	return nil
}

// fitAffine fits the QuantI8 per-dimension affine map to the live
// rows' range: decode(code) = off + scale·code with code ∈ [−127,127]
// spanning [lo,hi]. Degenerate dimensions (constant, or a non-finite
// range) get scale 0 — every code decodes to off, and slack absorbs
// whatever error remains.
func (s *Store) fitAffine(c *Codec) {
	n := s.Len()
	lo := make([]float64, s.dim)
	hi := make([]float64, s.dim)
	seen := false
	for i := 0; i < n; i++ {
		if !s.IsLive(i) {
			continue
		}
		row := s.Row(i)
		if !seen {
			copy(lo, row)
			copy(hi, row)
			seen = true
			continue
		}
		for j, v := range row {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	if !seen {
		return // empty store: zero params, slack grows on Append
	}
	for j := range lo {
		mid := lo[j] + (hi[j]-lo[j])/2
		sc := (hi[j] - lo[j]) / 254
		if !isFinite(mid) || !isFinite(sc) || sc <= 0 {
			mid, sc = 0, 0
			if isFinite(lo[j]) && lo[j] == hi[j] {
				mid = lo[j] // constant dimension: decode exactly
			}
		}
		c.off[j] = mid
		c.scale[j] = sc
	}
}

// encodeAll encodes every row, measuring slack over live rows only
// (dead rows are never screened).
func (s *Store) encodeAll(c *Codec) {
	n := s.Len()
	c.ensureSlots(n)
	for i := 0; i < n; i++ {
		c.encode(i, s.Row(i), s.IsLive(i))
	}
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
