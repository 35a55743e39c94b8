// Package store provides the contiguous vector storage every layer of
// the PM-LSH reproduction shares: n fixed-dimension float64 rows backed
// by one flat buffer.
//
// The flat layout is what makes the hot distance loops memory-friendly:
// scanning candidate rows walks a single allocation in address order
// instead of chasing one pointer per point, and batch kernels
// (vec.SquaredL2ToMany) can stream the buffer directly.
//
// A store only grows: Append writes a new row behind the last one and
// never touches an existing row. Whether a row still holds a live point
// is not the store's to say — the index layer keeps that in its
// PM-tree's delete epochs, and repacks the live rows into a fresh store
// when the dead share is worth it.
//
// So one writer can extend a store beside any number of readers without
// a lock: the Flat buffer a reader took before an Append is never
// rewritten (a write lands past the length it saw, a growth reallocation
// leaves it the old array). The Store value itself — its length — is
// the writer's: Append is single-writer, and readers use what the layer
// above published.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Store is a dense matrix of n rows × dim columns in one flat buffer.
type Store struct {
	dim int
	buf []float64 // len(buf) == n*dim at all times
}

// New creates an empty store for rows of the given dimensionality.
func New(dim int) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("store: dimension must be positive, got %d", dim)
	}
	return &Store{dim: dim}, nil
}

// FromRows copies rows into a fresh store, validating that every row
// has the same positive dimensionality. The input is not retained.
func FromRows(rows [][]float64) (*Store, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("store: FromRows requires at least one row")
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, fmt.Errorf("store: rows must be non-empty")
	}
	buf := make([]float64, 0, len(rows)*dim)
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("store: row %d has dimension %d, want %d", i, len(r), dim)
		}
		buf = append(buf, r...)
	}
	return &Store{dim: dim, buf: buf}, nil
}

// FromFlat adopts an existing flat buffer of n*dim values without
// copying. The buffer must not be mutated by the caller afterwards.
func FromFlat(flat []float64, dim int) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("store: dimension must be positive, got %d", dim)
	}
	if len(flat)%dim != 0 {
		return nil, fmt.Errorf("store: flat length %d is not a multiple of dim %d", len(flat), dim)
	}
	return &Store{dim: dim, buf: flat}, nil
}

// Len returns the number of rows.
func (s *Store) Len() int { return len(s.buf) / s.dim }

// Dim returns the row dimensionality.
func (s *Store) Dim() int { return s.dim }

// Row returns a zero-copy view of row i. A row's values never change
// once written; the view stays valid whatever is appended afterwards.
func (s *Store) Row(i int) []float64 {
	off := i * s.dim
	return s.buf[off : off+s.dim : off+s.dim]
}

// Flat returns the backing buffer (len = Len()*Dim()). Read-only.
func (s *Store) Flat() []float64 { return s.buf }

// Append stores p as a new row behind the last one and returns its
// index. No existing row is written.
func (s *Store) Append(p []float64) (int32, error) {
	if len(p) != s.dim {
		return 0, fmt.Errorf("store: row has dimension %d, store expects %d", len(p), s.dim)
	}
	row := int32(s.Len())
	s.buf = append(s.buf, p...)
	return row, nil
}

// Rows materializes a [][]float64 of zero-copy row views over every
// row (for compatibility with APIs that take slices of rows). The views
// share the backing buffer; do not mutate them.
func (s *Store) Rows() [][]float64 {
	out := make([][]float64, s.Len())
	for i := range out {
		out[i] = s.Row(i)
	}
	return out
}

// floatChunk is how many values ReadFloat64s and WriteFloat64s move per
// read or write.
const floatChunk = 16384

// ReadFloat64s reads total little-endian float64s incrementally: the
// buffer grows only as data actually arrives, so a corrupt header
// demanding more floats than the stream holds fails with a read error
// once the stream ends instead of committing a header-sized up-front
// allocation.
func ReadFloat64s(r io.Reader, total int) ([]float64, error) {
	out := make([]float64, 0, min(total, 1<<24))
	buf := make([]byte, floatChunk*8)
	for len(out) < total {
		n := min(total-len(out), floatChunk)
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out, nil
}

// WriteFloat64s streams fs as little-endian float64s through a bounded
// scratch buffer (binary.Write would materialize the whole encoding at
// once).
func WriteFloat64s(w io.Writer, fs []float64) error {
	buf := make([]byte, floatChunk*8)
	for len(fs) > 0 {
		n := min(len(fs), floatChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(fs[i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		fs = fs[n:]
	}
	return nil
}
