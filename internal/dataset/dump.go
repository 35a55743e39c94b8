package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/store"
)

// A dump is the raw file format cmd/datagen writes and the pmlsh and
// pmlshload commands read: two little-endian int64 headers n and d, then
// the n·d values as little-endian float64s, row after row.

// WriteDump writes points — at least one, all of one dimension — to path
// as a dump.
func WriteDump(path string, points [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := binary.Write(w, binary.LittleEndian, []int64{int64(len(points)), int64(len(points[0]))}); err != nil {
		return err
	}
	for _, p := range points {
		if err := store.WriteFloat64s(w, p); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// ReadDump reads the dump at path as row views of one flat buffer. The
// header is bounded as an index snapshot's is (n ≤ 2³⁰, d ≤ 2²⁰,
// n·d ≤ 2³²) and the values are read incrementally, so a corrupt header
// is an error once the file ends, not an allocation of what it claims.
func ReadDump(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [2]int64
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: read dump header: %w", err)
	}
	n, d := hdr[0], hdr[1]
	if n < 1 || d < 1 || n > 1<<30 || d > 1<<20 || n*d > 1<<32 {
		return nil, fmt.Errorf("dataset: implausible dump header n=%d d=%d", n, d)
	}
	flat, err := store.ReadFloat64s(r, int(n*d))
	if err != nil {
		return nil, fmt.Errorf("dataset: read dump vectors: %w", err)
	}
	s, err := store.FromFlat(flat, int(d))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return s.Rows(), nil
}
