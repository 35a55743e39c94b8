package core

import (
	"bytes"
	"fmt"
	"runtime"
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

// The F(x) sample runs on a goroutine of its own beside projection and
// the bulk load. Whatever way the build ends, that goroutine — and every
// one the projection and the load started — is done when it returns.
func TestBuildJoinsItsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// A sample this large outlasts the rest of the build by tens of
	// milliseconds, so a return that did not wait for it is caught below
	// with its goroutine still inside the sampling.
	data := randData(3000, 16, 33)
	cfg := Config{Seed: 1, DistSampleSize: 1 << 19, AutoCompactFraction: -1}
	check := func(label string, before int) {
		t.Helper()
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, fn := range []string{"sampleDistanceDistribution", "ProjectStore", "bulkLoad"} {
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

	// Capacity 2 passes core's validation and is refused by pmtree.New,
	// after the projection, while the sample is still being drawn.
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
