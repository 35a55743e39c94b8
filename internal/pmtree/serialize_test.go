package pmtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// testIDLimit is the id bound the tests hand Read: above every id they use.
const testIDLimit = 1 << 20

func TestSerializeRoundTrip(t *testing.T) {
	data := randData(700, 8, 51)
	orig, err := Build(data, nil, Config{NumPivots: 4, Capacity: 8, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}

	loaded, err := Read(&buf, testIDLimit)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Dim() != orig.Dim() ||
		loaded.NumPivots() != orig.NumPivots() || loaded.Height() != orig.Height() {
		t.Fatalf("shape mismatch: %d/%d %d/%d %d/%d %d/%d",
			loaded.Len(), orig.Len(), loaded.Dim(), orig.Dim(),
			loaded.NumPivots(), orig.NumPivots(), loaded.Height(), orig.Height())
	}

	// Identical query answers on both trees.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		r := rng.Float64() * 20
		a, err := orig.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(a, b) {
			t.Fatalf("trial %d: range results differ (%d vs %d)", trial, len(a), len(b))
		}
	}

	// The loaded tree accepts further inserts.
	if err := loaded.Insert(make([]float64, 8), 9999); err != nil {
		t.Fatal(err)
	}
	res, err := loaded.RangeSearch(make([]float64, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range res {
		if x.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Error("insert after load not found")
	}
}

func TestSerializeZeroPivots(t *testing.T) {
	data := randData(100, 5, 52)
	orig, _ := Build(data, nil, Config{NumPivots: 0})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf, testIDLimit)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPivots() != 0 || loaded.Len() != 100 {
		t.Errorf("loaded: pivots=%d len=%d", loaded.NumPivots(), loaded.Len())
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	data := randData(60, 4, 53)
	orig, _ := Build(data, nil, Config{NumPivots: 2})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad), testIDLimit); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(raw[:len(raw)/2]), testIDLimit); err == nil {
		t.Error("truncated stream accepted")
	}
	// Empty stream.
	if _, err := Read(bytes.NewReader(nil), testIDLimit); err == nil {
		t.Error("empty stream accepted")
	}
	// Corrupt header count.
	bad2 := append([]byte(nil), raw...)
	bad2[12]++ // count field low byte
	if _, err := Read(bytes.NewReader(bad2), testIDLimit); err == nil {
		t.Error("corrupt count accepted")
	}
}

// TestReadIDsAndVersions pins what Read makes of an entry's id and of
// the two older magics. In a version 3 stream -1 is a dead mark (which
// the header count must agree with) and anything below is corrupt; a
// version 1 or 2 stream — the same bytes without the tail section — has
// no dead marks, and loads as the same tree with an empty tail.
func TestReadIDsAndVersions(t *testing.T) {
	data := randData(5, 3, 54)
	orig, err := Build(data, nil, Config{NumPivots: 2, PivotSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Five points fit the root, a leaf: its first entry's id follows the
	// header, the pivots and the node's flag and count.
	idOff := 4 + 4*4 + 2*3*8 + 1 + 4
	if got := int32(binary.LittleEndian.Uint32(raw[idOff:])); got != orig.rowID[0] {
		t.Fatalf("offset %d holds %d, want the first entry's id %d", idOff, got, orig.rowID[0])
	}
	withID := func(src []byte, id int32) []byte {
		out := append([]byte(nil), src...)
		binary.LittleEndian.PutUint32(out[idOff:], uint32(id))
		return out
	}
	for _, id := range []int32{-1, -4} {
		if _, err := Read(bytes.NewReader(withID(raw, id)), testIDLimit); err == nil {
			t.Errorf("version 3 stream with id %d and an unchanged count accepted", id)
		}
	}

	// The caller's id bound holds for every id: the five ids 0…4 pass a
	// limit of 5, and a huge one is refused, not sized for.
	if _, err := Read(bytes.NewReader(raw), 5); err != nil {
		t.Errorf("ids below the limit refused: %v", err)
	}
	if _, err := Read(bytes.NewReader(raw), 4); err == nil {
		t.Error("an id at the limit accepted")
	}
	if _, err := Read(bytes.NewReader(withID(raw, 1<<30)), testIDLimit); err == nil {
		t.Error("an id beyond the limit accepted")
	}

	for _, v := range []byte{'1', '2'} {
		old := append([]byte(nil), raw[:len(raw)-4]...) // no tail section
		old[3] = v
		loaded, err := Read(bytes.NewReader(old), testIDLimit)
		if err != nil {
			t.Fatalf("version %c stream: %v", v, err)
		}
		requireSameTree(t, "version "+string(v)+" stream", orig, loaded)
		if _, err := Read(bytes.NewReader(withID(old, -1)), testIDLimit); err == nil {
			t.Errorf("version %c stream with id -1 accepted", v)
		}
	}

	// A dead mark the count agrees with loads, and stays dead.
	if err := orig.Delete(orig.rowID[0]); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, orig)
	requireSameTree(t, "tree with a dead entry", orig, loaded)
	if loaded.Len() != 4 || loaded.rowID[0] != -1 {
		t.Fatalf("loaded tree has %d points and first id %d, want 4 and -1", loaded.Len(), loaded.rowID[0])
	}
}
