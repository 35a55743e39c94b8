package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInfoConsistentUnderMutator pins the Info contract: every
// snapshot's fields must be mutually consistent while Insert, Delete
// and Compact run concurrently. An implementation that read Len,
// LiveLen and the dead count through separate loads of the shard's view
// would let a mutator land between the reads and surface impossible
// states (Live > IDs, negative Dead); reading every figure of a shard
// from one view cannot.
func TestInfoConsistentUnderMutator(t *testing.T) {
	for _, shards := range []int{1, 4} {
		data := randData(400, 8, 7)
		e, err := BuildEngine(data, Config{Shards: shards, Seed: 1,
			AutoCompactFraction: -1}) // accumulate tombstones: Dead > 0 states stay visible
		if err != nil {
			t.Fatal(err)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var mine []int32 // ids this goroutine inserted and may delete
				for !stop.Load() {
					switch {
					case len(mine) > 0 && rng.Intn(3) == 0:
						i := rng.Intn(len(mine))
						if err := e.Delete(mine[i]); err != nil {
							t.Error(err)
							return
						}
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					case rng.Intn(40) == 0:
						if err := e.Compact(); err != nil {
							t.Error(err)
							return
						}
					default:
						id, err := e.Insert(data[rng.Intn(len(data))])
						if err != nil {
							t.Error(err)
							return
						}
						mine = append(mine, id)
					}
				}
			}(int64(w) + 11)
		}

		sawDead := false
		for i := 0; i < 3000; i++ {
			info := e.Info()
			if info.Shards != shards || info.Dim != 8 {
				t.Fatalf("shards=%d: static fields wrong: %+v", shards, info)
			}
			if info.Live < 0 || info.Live > info.IDs {
				t.Fatalf("shards=%d: torn snapshot: Live=%d IDs=%d", shards, info.Live, info.IDs)
			}
			if info.Dead < 0 || info.Dead > info.IDs-info.Live {
				t.Fatalf("shards=%d: torn snapshot: Dead=%d IDs=%d Live=%d",
					shards, info.Dead, info.IDs, info.Live)
			}
			for s := range info.TailFraction {
				if tf, df := info.TailFraction[s], info.DeadFraction[s]; tf < 0 || tf > 1 || df < 0 || df > 1 {
					t.Fatalf("shards=%d: shard %d reports tail share %v, dead share %v", shards, s, tf, df)
				}
			}
			if info.Dead > 0 {
				sawDead = true
			}
		}
		stop.Store(true)
		wg.Wait()
		if !sawDead {
			t.Logf("shards=%d: never observed Dead > 0 (benign on slow machines)", shards)
		}

		// Quiescent ground truth: Info agrees with the individual
		// accessors once mutations stop.
		info := e.Info()
		if info.IDs != e.Len() || info.Live != e.LiveLen() || info.Quantize != e.Quantize() {
			t.Fatalf("shards=%d: quiescent Info %+v disagrees with Len=%d LiveLen=%d",
				shards, info, e.Len(), e.LiveLen())
		}
	}
}
