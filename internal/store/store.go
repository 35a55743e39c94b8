// Package store provides the contiguous vector storage every layer of
// the PM-LSH reproduction shares: n fixed-dimension float64 rows backed
// by one flat buffer.
//
// The flat layout is what makes the hot distance loops memory-friendly:
// scanning candidate rows walks a single allocation in address order
// instead of chasing one pointer per point, and batch kernels
// (vec.SquaredL2ToMany) can stream the buffer directly.
//
// A store only grows. Append writes a new row behind the last one and
// never touches an existing row; Delete tombstones a row where it lies
// and lists it among the dead rows — nothing refills it, the layer
// above repacks the live rows into a fresh store when the dead share is
// worth it. Len counts rows (live and dead); Live counts live rows.
//
// So one writer can extend a store beside any number of readers without
// a lock: what a reader took before an Append — the Flat buffer, the
// DeadRows list, the Codec — is never rewritten (a write lands past the
// length it saw, a growth reallocation leaves it the old array, a Codec
// is replaced, never edited). The Store value itself — its lengths,
// IsLive's marks — is the writer's: Append, Delete and SetQuantize are
// single-writer, and readers use what the layer above published.
package store

import "fmt"

// Store is a dense matrix of n rows × dim columns in one flat buffer,
// with the tombstoned rows marked and listed, and an optional quantized
// sidecar (see quantize.go) kept in sync by Append.
type Store struct {
	dim      int
	buf      []float64 // len(buf) == n*dim at all times
	dead     []bool    // dead[i] marks row i tombstoned; nil while no deletes
	deadRows []int32   // the tombstoned rows, in the order Delete took them
	codec    *Codec    // quantized sidecar, nil unless SetQuantize/RestoreCodec
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

// Len returns the number of rows (live plus tombstoned).
func (s *Store) Len() int { return len(s.buf) / s.dim }

// Live returns the number of live (non-tombstoned) rows.
func (s *Store) Live() int { return s.Len() - len(s.deadRows) }

// DeadFraction returns the tombstoned share of all rows (0 when the
// store is empty).
func (s *Store) DeadFraction() float64 {
	if n := s.Len(); n > 0 {
		return float64(len(s.deadRows)) / float64(n)
	}
	return 0
}

// IsLive reports whether row i exists and is not tombstoned.
func (s *Store) IsLive(i int) bool {
	if i < 0 || i >= s.Len() {
		return false
	}
	return i >= len(s.dead) || !s.dead[i]
}

// Dim returns the row dimensionality.
func (s *Store) Dim() int { return s.dim }

// Row returns a zero-copy view of row i. A row's values never change
// once written; the view stays valid whatever is appended afterwards.
func (s *Store) Row(i int) []float64 {
	off := i * s.dim
	return s.buf[off : off+s.dim : off+s.dim]
}

// Flat returns the backing buffer (len = Len()*Dim()). Read-only.
// Tombstoned rows keep their values.
func (s *Store) Flat() []float64 { return s.buf }

// Append stores p as a new row behind the last one and returns its
// index. No existing row is written.
func (s *Store) Append(p []float64) (int32, error) {
	if len(p) != s.dim {
		return 0, fmt.Errorf("store: row has dimension %d, store expects %d", len(p), s.dim)
	}
	row := int32(s.Len())
	s.buf = append(s.buf, p...)
	if s.codec != nil {
		s.codec = s.codec.appended(p)
	}
	return row, nil
}

// Delete tombstones row i and adds it to the dead rows. The row's
// values stay readable.
func (s *Store) Delete(i int) error {
	if i < 0 || i >= s.Len() {
		return fmt.Errorf("store: Delete of row %d outside [0,%d)", i, s.Len())
	}
	if n := s.Len() - len(s.dead); n > 0 {
		s.dead = append(s.dead, make([]bool, n)...)
	}
	if s.dead[i] {
		return fmt.Errorf("store: row %d already deleted", i)
	}
	s.dead[i] = true
	s.deadRows = append(s.deadRows, int32(i))
	return nil
}

// DeadRows returns the tombstoned rows in the order Delete took them.
// Read-only, and append-only like the rows: a caller keeps a consistent
// list whatever is deleted afterwards. Serialization writes it so a
// loaded store has the same rows dead.
func (s *Store) DeadRows() []int32 { return s.deadRows }

// RestoreDeadRows tombstones the given rows of a store with no
// deletions yet — the serialization loader's path to reconstruct
// tombstone state. Out-of-range and repeated rows are refused.
func (s *Store) RestoreDeadRows(rows []int32) error {
	if len(s.deadRows) != 0 {
		return fmt.Errorf("store: RestoreDeadRows on a store with %d deletions", len(s.deadRows))
	}
	for _, row := range rows {
		if err := s.Delete(int(row)); err != nil {
			return err
		}
	}
	return nil
}

// Rows materializes a [][]float64 of zero-copy row views over every
// row, live or dead (for compatibility with APIs that take slices of
// rows). The views share the backing buffer; do not mutate them.
func (s *Store) Rows() [][]float64 {
	out := make([][]float64, s.Len())
	for i := range out {
		out[i] = s.Row(i)
	}
	return out
}
