package main

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// With -data, bench's queries are rows of the dump, drawn by -seed.
func TestBenchDataQueriesAreDumpRows(t *testing.T) {
	const n, d = 50, 6
	rng := rand.New(rand.NewSource(3))
	raw := []int64{n, d}
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = 100 + 40*rng.Float64() // far from N(0,1) draws
	}
	path := filepath.Join(t.TempDir(), "dump.f64")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, raw); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, flat); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := dataset.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}

	qs := benchQueries(data, d, 20, 9)
	rows := map[int]bool{}
	for qi, q := range qs {
		row := slices.IndexFunc(data, func(r []float64) bool { return slices.Equal(r, q) })
		if row < 0 {
			t.Fatalf("query %d is not a row of the dump: %v", qi, q)
		}
		rows[row] = true
	}
	if len(rows) < 2 {
		t.Fatalf("20 queries drew %d distinct rows", len(rows))
	}
	if again := benchQueries(data, d, 20, 9); !slices.EqualFunc(qs, again, slices.Equal) {
		t.Fatal("the same -seed drew different queries")
	}
	// -index has no rows to sample: N(0,1) draws of the index's dimension.
	for _, q := range benchQueries(nil, d, 3, 9) {
		if len(q) != d || slices.IndexFunc(data, func(r []float64) bool { return slices.Equal(r, q) }) >= 0 {
			t.Fatalf("a query without -data is %v", q)
		}
	}
}
