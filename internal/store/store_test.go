package store

import (
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

// TestDeleteAndReuse: a tombstoned row is listed and skipped, and — the
// reuse there once was — nothing is ever written over it: every Append
// lands behind the last row, so what a reader took of the buffer before
// stays what it was.
func TestDeleteAndReuse(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	if s.Live() != 4 || s.DeadFraction() != 0 {
		t.Fatalf("fresh store: live=%d dead=%v", s.Live(), s.DeadFraction())
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.Live() != 2 || s.DeadFraction() != 0.5 {
		t.Fatalf("after deletes: len=%d live=%d dead=%v", s.Len(), s.Live(), s.DeadFraction())
	}
	if s.IsLive(1) || s.IsLive(3) || !s.IsLive(0) || !s.IsLive(2) {
		t.Fatal("liveness flags wrong")
	}
	// Double delete and out-of-range are errors.
	if err := s.Delete(1); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := s.Delete(-1); err == nil || s.Delete(4) == nil {
		t.Fatal("out-of-range delete accepted")
	}
	before, dead := s.Flat(), s.DeadRows()
	for i, want := range []int32{4, 5} {
		id, err := s.Append([]float64{30 + float64(i), 30})
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("append %d landed in row %d, want %d", i, id, want)
		}
	}
	if s.IsLive(1) || s.IsLive(3) || s.Row(1)[0] != 2 || s.Row(3)[0] != 4 {
		t.Fatalf("a tombstoned row changed: %v %v", s.Row(1), s.Row(3))
	}
	if len(before) != 8 || before[2] != 2 || before[6] != 4 || len(dead) != 2 || dead[0] != 1 || dead[1] != 3 {
		t.Fatalf("what a reader held changed: rows %v, dead %v", before, dead)
	}
	if s.Len() != 6 || s.Live() != 4 || len(s.DeadRows()) != 2 {
		t.Fatalf("final shape: len=%d live=%d dead=%v", s.Len(), s.Live(), s.DeadRows())
	}
}

func TestIsLiveAfterGrowth(t *testing.T) {
	// Deleting allocates the tombstone flags at the then-current size;
	// rows appended afterwards must still read as live.
	s, _ := FromRows([][]float64{{1}, {2}})
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if id, _ := s.Append([]float64{3}); id != 2 {
		t.Fatal("expected growth to row 2")
	}
	if !s.IsLive(2) {
		t.Fatal("grown row reads as dead")
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if s.IsLive(2) || s.IsLive(0) || !s.IsLive(1) {
		t.Fatal("liveness wrong after growth + delete")
	}
}

func TestRestoreFreeList(t *testing.T) {
	s, _ := FromRows([][]float64{{1}, {2}, {3}})
	if err := s.RestoreDeadRows([]int32{2, 0}); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 1 || s.IsLive(0) || s.IsLive(2) {
		t.Fatal("restored tombstones wrong")
	}
	// The list comes back in the order it was given, and stays dead.
	if d := s.DeadRows(); len(d) != 2 || d[0] != 2 || d[1] != 0 {
		t.Fatalf("restored dead rows %v, want [2 0]", d)
	}
	if id, _ := s.Append([]float64{9}); id != 3 {
		t.Fatal("an append refilled a restored dead row")
	}
	// Invalid restores fail: duplicate slot, out of range, non-fresh.
	s2, _ := FromRows([][]float64{{1}, {2}})
	if err := s2.RestoreDeadRows([]int32{1, 1}); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	s3, _ := FromRows([][]float64{{1}})
	if err := s3.RestoreDeadRows([]int32{5}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	s4, _ := FromRows([][]float64{{1}, {2}})
	_ = s4.Delete(0)
	if err := s4.RestoreDeadRows([]int32{1}); err == nil {
		t.Fatal("restore onto a mutated store accepted")
	}
}
