package store

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should fail")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) should fail")
	}
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Dim() != 4 {
		t.Fatalf("empty store: len=%d dim=%d", s.Len(), s.Dim())
	}
}

func TestFromRowsAndViews(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	s, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Fatalf("len=%d dim=%d", s.Len(), s.Dim())
	}
	// Input must not be retained: mutating the source rows does not
	// change the store.
	rows[1][0] = 99
	if got := s.Row(1)[0]; got != 3 {
		t.Fatalf("store aliased its input: Row(1)[0] = %v", got)
	}
	for i := range rows {
		r := s.Row(i)
		if len(r) != 2 {
			t.Fatalf("row %d has length %d", i, len(r))
		}
	}
	if s.Row(2)[1] != 6 {
		t.Fatalf("Row(2) = %v", s.Row(2))
	}
	// Row views have clamped capacity: appending to one cannot clobber
	// the next row.
	r := s.Row(0)
	if cap(r) != 2 {
		t.Fatalf("row view capacity %d, want 2", cap(r))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows should fail")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Fatal("zero-dim rows should fail")
	}
}

func TestFromFlat(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6}
	s, err := FromFlat(flat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Row(1)[0] != 4 {
		t.Fatalf("Row(1) = %v", s.Row(1))
	}
	// Adoption is zero-copy.
	if &s.Flat()[0] != &flat[0] {
		t.Fatal("FromFlat copied the buffer")
	}
	if _, err := FromFlat(flat, 4); err == nil {
		t.Fatal("non-multiple length should fail")
	}
	if _, err := FromFlat(flat, 0); err == nil {
		t.Fatal("zero dim should fail")
	}
}

func TestAppendGrowth(t *testing.T) {
	s, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		id, err := s.Append([]float64{float64(i), float64(2 * i), float64(3 * i)})
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("append %d returned id %d", i, id)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := 0; i < 100; i++ {
		r := s.Row(i)
		if r[0] != float64(i) || r[2] != float64(3*i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if _, err := s.Append([]float64{1, 2}); err == nil {
		t.Fatal("wrong-dimension append should fail")
	}
}

func TestRows(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	rows := s.Rows()
	if len(rows) != 2 || rows[1][1] != 4 {
		t.Fatalf("Rows() = %v", rows)
	}
	// Rows() views share the backing buffer.
	if &rows[0][0] != &s.Flat()[0] {
		t.Fatal("Rows() copied")
	}
}

// The float codec round-trips across its chunk boundary, and a stream
// shorter than the count it is read with is an error.
func TestFloat64sRoundTrip(t *testing.T) {
	in := make([]float64, floatChunk+3)
	for i := range in {
		in[i] = float64(i) - 0.5
	}
	var buf bytes.Buffer
	if err := WriteFloat64s(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8*len(in) {
		t.Fatalf("wrote %d bytes for %d values", buf.Len(), len(in))
	}
	out, err := ReadFloat64s(bytes.NewReader(buf.Bytes()), len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, in) {
		t.Fatal("values changed in the round trip")
	}
	if _, err := ReadFloat64s(bytes.NewReader(buf.Bytes()), len(in)+1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reading one value past the stream: %v, want a short read", err)
	}
}
