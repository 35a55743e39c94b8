package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metric"
)

// TestEngineShardContract runs one table over both kinds of shard — the
// vector Index (L2) and the MinHash set shard (Jaccard) — at 1 and 3
// shards. The engine routes, counts, compacts and writes through one
// interface, so each kind must keep the same contract: ids stripe as
// local·N + s, a delete retires its id, Info agrees with Len and LiveLen,
// an explicit Compact is one observed compaction per shard, and a
// snapshot loads as the engine it was written from. Only LoadEngine
// loads a set stream; Load refuses it and says so.
func TestEngineShardContract(t *testing.T) {
	const built, inserted = 48, 6
	vectors := clusteredData(built+inserted, 4, 6, 46)
	sets := metricTestSets((built+inserted)/3, 3, 24, 46)
	kinds := []struct {
		name  string
		build func(shards int) (*Engine, error)
		point func(i int) []float64
	}{
		{"l2", func(n int) (*Engine, error) {
			return BuildEngine(vectors[:built], Config{M: 8, Seed: 46, Shards: n, AutoCompactFraction: -1})
		}, func(i int) []float64 { return vectors[i] }},
		{"jaccard", func(n int) (*Engine, error) {
			return BuildSetsEngine(sets[:built], Config{Metric: metric.Jaccard, Seed: 46, Shards: n})
		}, func(i int) []float64 { return tokensAsFloats(sets[i]) }},
	}
	ctx := context.Background()
	for _, kind := range kinds {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind.name, n), func(t *testing.T) {
				e, err := kind.build(n)
				if err != nil {
					t.Fatal(err)
				}
				for i := built; i < built+inserted; i++ {
					gid, err := e.Insert(kind.point(i))
					if err != nil {
						t.Fatal(err)
					}
					// The newest local id of shard gid mod N is gid div N.
					sh, local := e.shards[int(gid)%n], gid/int32(n)
					if gid != int32(i) || sh.Len() != int(local)+1 || !sh.IsLive(local) {
						t.Fatalf("insert %d: id %d, its shard holds %d ids", i, gid, sh.Len())
					}
				}
				deleted := []int32{3, 10, built + 1}
				for _, gid := range deleted {
					if err := e.Delete(gid); err != nil {
						t.Fatal(err)
					}
					if e.IsLive(gid) || e.shards[int(gid)%n].IsLive(gid/int32(n)) {
						t.Fatalf("id %d is live after its Delete", gid)
					}
				}
				info := e.Info()
				if info.Metric != e.Metric() || info.Shards != n || info.IDs != e.Len() || info.Live != e.LiveLen() ||
					info.IDs != built+inserted || info.Live != info.IDs-len(deleted) || info.Dead != len(deleted) {
					t.Fatalf("Info %+v against Len %d, LiveLen %d after %d deletes", info, e.Len(), e.LiveLen(), len(deleted))
				}

				var observed atomic.Int64
				e.OnCompact(func(time.Duration) { observed.Add(1) })
				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
				after := e.Info()
				if observed.Load() != int64(n) || after.Compactions != info.Compactions+int64(n) || after.Dead != 0 {
					t.Fatalf("one Compact over %d shards: %d observed, Info %+v, before it %+v", n, observed.Load(), after, info)
				}

				stream := engineBytes(t, e)
				got, err := LoadEngine(bytes.NewReader(stream))
				if err != nil {
					t.Fatal(err)
				}
				// The compaction count is the session's: a loaded engine of
				// either kind has made none.
				gi := got.Info()
				if after.Compactions = 0; !reflect.DeepEqual(after, gi) {
					t.Fatalf("Info %+v after a round trip, %+v before", gi, after)
				}
				for _, i := range []int{0, 7, built + 2} {
					var sa, sb QueryStats
					want, err := e.Search(ctx, kind.point(i), 5, SearchOptions{Stats: &sa})
					if err != nil {
						t.Fatal(err)
					}
					have, err := got.Search(ctx, kind.point(i), 5, SearchOptions{Stats: &sb})
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 || sa != sb {
						t.Fatalf("query %d: %d results with %+v, loaded %+v", i, len(want), sa, sb)
					}
					identicalResults(t, fmt.Sprintf("query %d after a round trip", i), want, have)
				}

				_, err = Load(bytes.NewReader(stream))
				if refuse := n > 1 || e.Metric() == metric.Jaccard; refuse != (err != nil) ||
					refuse && !strings.Contains(err.Error(), "LoadEngine") {
					t.Fatalf("Load of a %d-shard %v stream: %v", n, e.Metric(), err)
				}
			})
		}
	}
}
