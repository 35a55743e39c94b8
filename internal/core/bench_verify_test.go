package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkVerifySplit is the sweep behind splitMinWork: one round's
// exact verification at k = 50 of the m projected-nearest rows (what a
// scanning round at budget m verifies) at the repository benchmark's
// shapes, serially (helpers=0) and split with one helper at GOMAXPROCS
// 2 (helpers=1), for work = m·d from 2^15 to 2^21, finer between 2^18
// and 2^19 (the d=64 shape stops at its 5 000 rows). Where helpers=1
// starts beating helpers=0 at every d is where a round pays for a
// goroutine's start and join.
func BenchmarkVerifySplit(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, shape := range buildShapes {
		data := shapePoints(b, shape.spec)
		ix, err := Build(data, Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		v := ix.view.Load()
		q := data[len(data)/2]
		sc := ix.getScratch()
		top := make([]Result, 0, 50)
		for _, work := range []int{1 << 15, 1 << 16, 1 << 17, 1 << 18, 5 << 16, 3 << 17, 7 << 16, 1 << 19, 1 << 20, 1 << 21} {
			m := work / shape.spec.D
			if m < 2*verifyClaim || m > len(data) {
				continue
			}
			en, err := ix.startEnum(sc, v.tree, q, false)
			if err != nil {
				b.Fatal(err)
			}
			sc.ids, _ = en.Nearest(math.Inf(1), m, nil, sc.ids)
			for _, helpers := range []int{0, 1} {
				b.Run(fmt.Sprintf("work=%d/d=%d/helpers=%d", work, shape.spec.D, helpers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						vf := verifier{view: v, q: q, blk: &sc.blk, k: 50, top: top[:0], bound: math.Inf(1)}
						if helpers == 0 {
							vf.run(sc.ids)
						} else {
							sc.splitVerify(&vf, sc.ids)
						}
					}
				})
			}
		}
		ix.putScratch(sc, v.live())
	}
}

// BenchmarkConcurrentSearch times k = 50 Searches on one shard of the
// knn-d128 and knn-d768 shapes from one closed-loop caller and from two
// at once; run it with -cpu 2, where two callers are a busy single-shard
// server whose handlers already fill the cores. ns/op is wall time per
// query across the callers: at callers=1 the latency a split buys, at
// callers=2 the inverse of throughput, where CPU spent on a helper would
// show as a loss.
func BenchmarkConcurrentSearch(b *testing.B) {
	for _, shape := range buildShapes[:2] {
		data := shapePoints(b, shape.spec)
		ix, err := Build(data, Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for _, callers := range []int{1, 2} {
			b.Run(fmt.Sprintf("d=%d/callers=%d", shape.spec.D, callers), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				wg.Add(callers)
				for range callers {
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							if _, err := ix.Search(context.Background(), data[i*7919%len(data)], 50, SearchOptions{}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
