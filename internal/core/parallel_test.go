package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metric"
)

// A build and a compaction run on GOMAXPROCS goroutines (projection in
// chunks, the bulk load by halves, the F(x) sample beside both) and
// must write the same engine whatever that number is: the tree stream,
// distCDF and rowOf are all in Engine.WriteTo's bytes.
func TestBuildSameBytesAtAnyParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	data := clusteredData(4000, 24, 12, 31)
	fresh := randData(900, 24, 32)
	for _, shards := range []int{1, 3} {
		for _, m := range []metric.Kind{metric.L2, metric.Cosine} {
			var wantBuilt, wantCompacted []byte
			for _, procs := range []int{1, 2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				tag := fmt.Sprintf("shards=%d metric=%v GOMAXPROCS=%d", shards, m, procs)
				e, err := BuildEngine(data, Config{Seed: 5, Shards: shards, Metric: m, AutoCompactFraction: -1})
				if err != nil {
					t.Fatal(tag, err)
				}
				built := engineBytes(t, e)
				// Churn: a tail of inserts and a spread of deletes, so the
				// compaction repacks, re-projects and bulk loads with ids.
				for _, p := range fresh {
					if _, err := e.Insert(p); err != nil {
						t.Fatal(tag, err)
					}
				}
				for id := 0; id < len(data); id += 3 {
					if err := e.Delete(int32(id)); err != nil {
						t.Fatal(tag, err)
					}
				}
				if err := e.Compact(); err != nil {
					t.Fatal(tag, err)
				}
				compacted := engineBytes(t, e)
				if procs == 1 {
					wantBuilt, wantCompacted = built, compacted
					continue
				}
				if !bytes.Equal(built, wantBuilt) {
					t.Errorf("%s: the built engine's stream differs from the one at GOMAXPROCS=1", tag)
				}
				if !bytes.Equal(compacted, wantCompacted) {
					t.Errorf("%s: the compacted engine's stream differs from the one at GOMAXPROCS=1", tag)
				}
			}
		}
	}
}

func engineBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The row pass (fillRows) copies and checks the rows in GOMAXPROCS
// ranges. Whatever that number, Build and Load refuse
// rows without a finite norm by the lowest one, with the same error —
// one bad row in the first range or the last, or one in each of two —
// and a build of good rows has the same Info and answers.
func TestRowPassAtAnyParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	const n, dim = 400, 8
	data := clusteredData(n, dim, 4, 35)
	cfg := Config{Seed: 36, DistSampleSize: 500}
	good, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	v := good.view.Load()
	rowOff := treeFlagOff + 1 + 3*4 + good.cfg.M*dim*8 + 4 + len(v.distCDF)*8
	for _, tc := range []struct {
		name string
		bad  []int
	}{
		{"first range", []int{3}},
		{"last range", []int{n - 2}},
		{"two ranges", []int{n - 50, n/2 - 50}},
	} {
		want := fmt.Sprintf("core: row %d has a NaN or infinite component, or a norm beyond float64", slices.Min(tc.bad))
		rows, raw := slices.Clone(data), slices.Clone(stream)
		for i, r := range tc.bad {
			rows[r] = badVectors(dim)[[]string{"nan", "1e308"}[i]]
			for j, x := range rows[r] {
				binary.LittleEndian.PutUint64(raw[rowOff+(r*dim+j)*8:], math.Float64bits(x))
			}
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			tag := fmt.Sprintf("%s GOMAXPROCS=%d", tc.name, procs)
			_, errBuild := Build(rows, cfg)
			_, errLoad := Load(bytes.NewReader(raw))
			for path, err := range map[string]error{"Build": errBuild, "Load": errLoad} {
				if err == nil || err.Error() != want {
					t.Errorf("%s: %s: %v, want %q", tag, path, err, want)
				}
			}
		}
	}

	q := clusteredData(1, dim, 1, 37)[0]
	var wantInfo EngineInfo
	var wantRes []Result
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		e, err := BuildEngine(data, Config{Seed: 36, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(context.Background(), q, 10, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			wantInfo, wantRes = e.Info(), res
			continue
		}
		if info := e.Info(); !reflect.DeepEqual(info, wantInfo) {
			t.Errorf("GOMAXPROCS=%d: Info %+v, at 1 %+v", procs, info, wantInfo)
		}
		identicalResults(t, fmt.Sprintf("GOMAXPROCS=%d", procs), res, wantRes)
	}
}

// The F(x) sample runs on goroutines of its own beside projection.
// Whatever way the build ends, they — and every one the projection
// started — are done when it returns.
func TestBuildJoinsItsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// A sample this large outlasts the rest of the build by tens of
	// milliseconds, so a return that did not wait for it is caught below
	// with its goroutine still inside the sampling.
	data := randData(3000, 16, 33)
	cfg := Config{Seed: 1, DistSampleSize: 1 << 19, AutoCompactFraction: -1}
	check := func(label string, before int) {
		t.Helper()
		checkJoined(t, label, before, "fillRows", "sampleDistanceDistribution", "ProjectStore", "bulkLoad")
	}

	// Capacity 2 passes core's validation and is refused by
	// pmtree.NewDeferred, after the projection, while the sample is still
	// being drawn.
	refused := cfg
	refused.Capacity = 2
	before := runtime.NumGoroutine()
	if _, err := Build(data, refused); err == nil {
		t.Fatal("Build accepted Capacity 2")
	}
	check("Build refused by pmtree", before)

	before = runtime.NumGoroutine()
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Build", before)

	for id := int32(0); id < 1000; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	before = runtime.NumGoroutine()
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", before)

	// The same refusal from inside a compaction.
	ix.cfg.Capacity = 2
	before = runtime.NumGoroutine()
	if err := ix.Compact(); err == nil {
		t.Fatal("Compact accepted Capacity 2")
	}
	check("Compact refused by pmtree", before)
}

// checkJoined fails the test if a goroutine is still inside one of fns,
// or if the goroutine count does not return to before.
func checkJoined(t *testing.T, label string, before int, fns ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range fns {
		if strings.Contains(stacks, fn) {
			t.Errorf("%s: a goroutine is still inside %s", label, fn)
		}
	}
	// A joined goroutine has made its last send or called Done and has
	// nothing left to do but exit; only a leaked one is there for good.
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%s: %d goroutines before, %d after", label, before, after)
	}
}

// TestSortDistancesMatchesSortFloat64s: the sample's radix sort orders
// non-negative distances bit for bit as sort.Float64s does — zeros,
// subnormals, ties, +Inf, one element, and keys sharing every byte but
// one.
func TestSortDistancesMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cases := [][]float64{{3}, {0, 0, 0}, {math.Inf(1), 0, math.SmallestNonzeroFloat64, 1, 1}}
	for _, n := range []int{2, 255, 256, 50000} {
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.ExpFloat64() * []float64{1, 1e-300, 1e300}[i%3]
		}
		shared := make([]float64, n)
		for i := range shared {
			shared[i] = math.Float64frombits(math.Float64bits(2.5) | uint64(rng.Intn(256))<<16)
		}
		cases = append(cases, a, shared)
	}
	for ci, c := range cases {
		got, want := slices.Clone(c), slices.Clone(c)
		sortDistances(got)
		sort.Float64s(want)
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("case %d (%d values): radix order differs from sort.Float64s", ci, len(c))
		}
	}
}
