// Package lsh implements the p-stable locality-sensitive hashing
// primitives from Section 2.2 of the PM-LSH paper: the projection
// family h*(o) = a·o (Eq. 3), the bucketed family
// h(o) = ⌊(a·o + b)/w⌋ (Eq. 1), compound hashes G(o), and E2LSH-style
// hash tables used by the Multi-Probe baseline.
//
// All randomness is drawn from caller-supplied seeds so index builds
// are reproducible.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/store"
	"repro/internal/vec"
)

// Projection is a family of m Gaussian projections h*_i(o) = a_i · o.
// It maps points from the original d-dimensional space to the projected
// m-dimensional space in which PM-LSH and SRS build their metric index.
type Projection struct {
	m, d int
	a    [][]float64 // m rows of d-dimensional Gaussian vectors
}

// NewProjection creates m independent projections for d-dimensional
// points, drawing each coefficient from N(0,1) (the 2-stable
// distribution) with the given seed.
func NewProjection(m, d int, seed int64) (*Projection, error) {
	if m <= 0 || d <= 0 {
		return nil, fmt.Errorf("lsh: NewProjection requires m > 0 and d > 0, got m=%d d=%d", m, d)
	}
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, m)
	for i := range a {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		a[i] = row
	}
	return &Projection{m: m, d: d, a: a}, nil
}

// ProjectionFromRows reconstructs a projection from its coefficient
// rows (used when deserializing an index). Rows are retained, not
// copied; all rows must have equal, positive length.
func ProjectionFromRows(rows [][]float64) (*Projection, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("lsh: ProjectionFromRows requires at least one row")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("lsh: projection rows must be non-empty")
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("lsh: row %d has length %d, want %d", i, len(r), d)
		}
	}
	return &Projection{m: len(rows), d: d, a: rows}, nil
}

// Row returns the i-th coefficient vector (shared; do not mutate).
func (p *Projection) Row(i int) []float64 { return p.a[i] }

// M returns the number of projections (the projected dimensionality).
func (p *Projection) M() int { return p.m }

// D returns the original dimensionality.
func (p *Projection) D() int { return p.d }

// Project maps o into the projected space, returning the m-dimensional
// vector [h*_1(o), …, h*_m(o)]. It panics if len(o) != D().
func (p *Projection) Project(o []float64) []float64 {
	out := make([]float64, p.m)
	p.ProjectTo(out, o)
	return out
}

// ProjectTo is like Project but writes into dst, which must have
// length M().
func (p *Projection) ProjectTo(dst, o []float64) {
	if len(o) != p.d {
		panic(fmt.Sprintf("lsh: point has dimension %d, projection expects %d", len(o), p.d))
	}
	if len(dst) != p.m {
		panic(fmt.Sprintf("lsh: dst has length %d, want %d", len(dst), p.m))
	}
	for i, row := range p.a {
		dst[i] = vec.Dot(row, o)
	}
}

// ProjectAll maps every point in data, returning one projected vector
// per input point.
func (p *Projection) ProjectAll(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	flat := make([]float64, len(data)*p.m)
	for i, o := range data {
		dst := flat[i*p.m : (i+1)*p.m : (i+1)*p.m]
		p.ProjectTo(dst, o)
		out[i] = dst
	}
	return out
}

// ProjectStore maps every row of src into a fresh m-dimensional store:
// the flat-buffer counterpart of ProjectAll, used to hand the projected
// points to a metric index without materializing per-row slices. The
// rows go in GOMAXPROCS chunks, the last on the caller's goroutine, and
// each output row is written by exactly one of them.
func (p *Projection) ProjectStore(src *store.Store) (*store.Store, error) {
	if src.Dim() != p.d {
		return nil, fmt.Errorf("lsh: store has dimension %d, projection expects %d", src.Dim(), p.d)
	}
	n, procs := src.Len(), runtime.GOMAXPROCS(0)
	flat := make([]float64, n*p.m)
	per := (n + procs - 1) / procs
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		chunk := func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				p.ProjectTo(flat[i*p.m:(i+1)*p.m:(i+1)*p.m], src.Row(i))
			}
		}
		wg.Add(1)
		if hi < n {
			go chunk()
		} else {
			chunk()
		}
	}
	wg.Wait()
	return store.FromFlat(flat, p.m)
}

// HashFunc is a single bucketed p-stable hash h(o) = ⌊(a·o + b)/w⌋
// (the paper's Eq. 1) with b drawn uniformly from [0, w).
type HashFunc struct {
	A []float64 // Gaussian direction
	B float64   // uniform offset in [0, W)
	W float64   // bucket width
}

// NewHashFunc draws a hash function for d-dimensional points with
// bucket width w.
func NewHashFunc(d int, w float64, rng *rand.Rand) HashFunc {
	a := make([]float64, d)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return HashFunc{A: a, B: rng.Float64() * w, W: w}
}

// Raw returns the un-bucketed projection a·o + b.
func (h HashFunc) Raw(o []float64) float64 {
	return vec.Dot(h.A, o) + h.B
}

// Hash returns the bucket index ⌊(a·o + b)/w⌋.
func (h HashFunc) Hash(o []float64) int {
	return int(math.Floor(h.Raw(o) / h.W))
}

// BucketKey is the compound hash value G(o) = (h_1(o), …, h_k(o)) of a
// point, encoded as a comparable string key so it can index a Go map.
type BucketKey string

// CompoundHash is G(o): the concatenation of k bucketed hash functions
// forming one hash table's key, as in E2LSH.
type CompoundHash struct {
	funcs []HashFunc
}

// NewCompoundHash draws k hash functions of width w over d dimensions.
func NewCompoundHash(k, d int, w float64, rng *rand.Rand) *CompoundHash {
	fs := make([]HashFunc, k)
	for i := range fs {
		fs[i] = NewHashFunc(d, w, rng)
	}
	return &CompoundHash{funcs: fs}
}

// K returns the number of concatenated hash functions.
func (g *CompoundHash) K() int { return len(g.funcs) }

// Funcs exposes the underlying hash functions (read-only use).
func (g *CompoundHash) Funcs() []HashFunc { return g.funcs }

// Buckets returns the per-function bucket indices of o.
func (g *CompoundHash) Buckets(o []float64) []int {
	out := make([]int, len(g.funcs))
	for i, f := range g.funcs {
		out[i] = f.Hash(o)
	}
	return out
}

// Key encodes bucket indices into a map key.
func Key(buckets []int) BucketKey {
	// 8-byte little-endian per coordinate; avoids fmt overhead on the
	// hot path of table probing.
	b := make([]byte, 0, len(buckets)*8)
	for _, v := range buckets {
		u := uint64(int64(v))
		b = append(b,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return BucketKey(b)
}

// Table is one E2LSH hash table: points bucketed by a compound hash.
type Table struct {
	G       *CompoundHash
	buckets map[BucketKey][]int32
}

// NewTable builds a table over data with the given compound hash.
func NewTable(g *CompoundHash, data [][]float64) *Table {
	t := &Table{G: g, buckets: make(map[BucketKey][]int32, len(data))}
	for id, o := range data {
		k := Key(g.Buckets(o))
		t.buckets[k] = append(t.buckets[k], int32(id))
	}
	return t
}

// Bucket returns the ids stored under the given per-function bucket
// indices (nil when the bucket is empty).
func (t *Table) Bucket(buckets []int) []int32 {
	return t.buckets[Key(buckets)]
}

// Len returns the number of non-empty buckets.
func (t *Table) Len() int { return len(t.buckets) }
