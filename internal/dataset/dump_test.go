package dataset

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestDumpRoundTrip(t *testing.T) {
	ds, err := Generate(Spec{Name: "t", N: 37, D: 5, SubspaceDim: 2, RCTarget: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.f64")
	if err := WriteDump(path, ds.Points); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 16+37*5*8 || binary.LittleEndian.Uint64(raw) != 37 || binary.LittleEndian.Uint64(raw[8:]) != 5 {
		t.Fatalf("dump of %d bytes with header %v", len(raw), raw[:16])
	}
	got, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, ds.Points, slices.Equal) {
		t.Fatal("the dump reads back other points")
	}
}

// TestReadDumpRefusesHugeHeaders: a header is bounded as a whole, not
// only field by field, and a plausible one that the file cannot back is
// a read error — neither sizes an allocation, so neither panics.
func TestReadDumpRefusesHugeHeaders(t *testing.T) {
	for _, hdr := range [][2]int64{
		{1 << 30, 1 << 20}, // each field in bounds, n·d = 2⁵⁰
		{1 << 30, 1 << 3},  // n·d = 2³³
		{-1, 4},
		{1 << 30, 4}, // n·d = 2³²: plausible, and 16 bytes long
	} {
		path := filepath.Join(t.TempDir(), "dump.f64")
		if err := os.WriteFile(path, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(hdr[0])), uint64(hdr[1])), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDump(path); err == nil {
			t.Errorf("header n=%d d=%d read", hdr[0], hdr[1])
		}
	}
}
