package pmtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The bulk load hands halves of a bisection to other goroutines; the
// tree it builds must not depend on how many there were or on which
// half finished first. The race detector sees unsynchronized access,
// not order: a leaf packed at the wrong offset or a level concatenated
// right before left is a different fingerprint, which is what this
// compares.
func TestBulkLoadSameBytesAtAnyParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type fixture struct {
		name string
		data [][]float64
	}
	var fixtures []fixture
	for _, n := range []int{1, 17, 600, 6000} {
		fixtures = append(fixtures, fixture{fmt.Sprintf("n=%d", n), randData(n, 6, int64(n))})
	}
	// Heavy duplicates: 3000 rows on 12 distinct points, most of them on
	// the first. Bisections come out lopsided (the median fallback) and
	// leaf-sized chunks straddle two points (the refinement split).
	rng := rand.New(rand.NewSource(12))
	sites := randData(12, 6, 12)
	dup := make([][]float64, 3000)
	for i := range dup {
		site := 0
		if rng.Intn(3) == 0 {
			site = rng.Intn(len(sites))
		}
		dup[i] = sites[site]
	}
	fixtures = append(fixtures, fixture{"duplicates", dup})

	for _, fx := range fixtures {
		sparse := make([]int32, len(fx.data))
		for i := range sparse {
			sparse[i] = int32(3*i + 1)
		}
		for _, ids := range [][]int32{nil, sparse} {
			var want []byte
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				tr, err := Build(fx.data, ids, Config{NumPivots: 5, PivotSeed: 3})
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprint(tr)
				if procs == 1 {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s, sparse ids %v: tree at GOMAXPROCS=%d differs from the one at 1", fx.name, ids != nil, procs)
				}
			}
		}
	}
}
