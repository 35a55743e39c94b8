package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/lscan"
	"repro/internal/vec"
)

// identicalResults asserts element-wise equality including the exact
// float bit patterns — the 1-shard engine must not perturb a single
// ulp relative to the bare index.
func identicalResults(t *testing.T, tag string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: result %d: %+v vs %+v", tag, i, a[i], b[i])
		}
	}
}

// churn applies the same mutation sequence to anything with the index
// mutation surface and reports the assigned ids.
type mutable interface {
	Insert(p []float64) (int32, error)
	Delete(id int32) error
	Compact() error
}

func applyChurn(t *testing.T, ix mutable, extra [][]float64, deletions []int32) []int32 {
	t.Helper()
	var ids []int32
	for _, p := range extra[:len(extra)/2] {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range deletions {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, p := range extra[len(extra)/2:] {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// A 1-shard engine must be element-wise identical to the bare Index —
// answers, statistics and serialized bytes — through build, churn and
// every query type.
func TestEngineOneShardIdentical(t *testing.T) {
	data := clusteredData(900, 24, 8, 71)
	cfg := Config{Seed: 71}
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		cfg := cfg
		cfg.Shards = shards
		e, err := BuildEngine(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.Shards() != 1 {
			t.Fatalf("Shards() = %d", e.Shards())
		}
		extra := clusteredData(40, 24, 8, 72)
		deletions := []int32{3, 17, 101, 440, 899, 903}
		if shards == 0 { // churn the bare index only once
			applyChurn(t, ix, extra, deletions)
		}
		eids := applyChurn(t, e, extra, deletions)
		if int32(eids[len(eids)-1]) != int32(ix.Len()-1) {
			t.Fatalf("id streams diverged: engine last id %d, index len %d", eids[len(eids)-1], ix.Len())
		}

		ctx := context.Background()
		qs := clusteredData(25, 24, 8, 73)
		for i, q := range qs {
			var sa, sb QueryStats
			ra, erra := ix.Search(ctx, q, 10, SearchOptions{Stats: &sa})
			rb, errb := e.Search(ctx, q, 10, SearchOptions{Stats: &sb})
			if erra != nil || errb != nil {
				t.Fatal(erra, errb)
			}
			identicalResults(t, "search", ra, rb)
			if sa != sb {
				t.Fatalf("query %d stats: %+v vs %+v", i, sa, sb)
			}
			ba, erra := ix.SearchBall(ctx, q, 8, SearchOptions{})
			bb, errb := e.SearchBall(ctx, q, 8, SearchOptions{})
			if erra != nil || errb != nil {
				t.Fatal(erra, errb)
			}
			if (ba == nil) != (bb == nil) || (ba != nil && *ba != *bb) {
				t.Fatalf("query %d ball: %+v vs %+v", i, ba, bb)
			}
		}
		batchA := make([]QueryStats, len(qs))
		batchB := make([]QueryStats, len(qs))
		bra, erra := ix.SearchBatch(ctx, qs, 7, SearchOptions{BatchStats: batchA})
		brb, errb := e.SearchBatch(ctx, qs, 7, SearchOptions{BatchStats: batchB})
		if erra != nil || errb != nil {
			t.Fatal(erra, errb)
		}
		for i := range bra {
			identicalResults(t, "batch", bra[i], brb[i])
			if batchA[i] != batchB[i] {
				t.Fatalf("batch stats %d: %+v vs %+v", i, batchA[i], batchB[i])
			}
		}
		var pa, pb CPStats
		cpA, erra := ix.SearchPairs(ctx, 8, SearchOptions{PairStats: &pa})
		cpB, errb := e.SearchPairs(ctx, 8, SearchOptions{PairStats: &pb})
		if erra != nil || errb != nil {
			t.Fatal(erra, errb)
		}
		if len(cpA) != len(cpB) {
			t.Fatalf("pairs: %d vs %d", len(cpA), len(cpB))
		}
		for i := range cpA {
			if cpA[i] != cpB[i] {
				t.Fatalf("pair %d: %+v vs %+v", i, cpA[i], cpB[i])
			}
		}
		if pa != pb {
			t.Fatalf("pair stats: %+v vs %+v", pa, pb)
		}

		var wantBytes, gotBytes bytes.Buffer
		if _, err := ix.WriteTo(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := e.WriteTo(&gotBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
			t.Fatalf("1-shard engine stream differs from index stream (%d vs %d bytes)",
				wantBytes.Len(), gotBytes.Len())
		}
	}
}

// Sharded KNN must stay within the paper's quality regime: recall at
// least 0.8 against brute force and every distance within factor c of
// the exact same-rank distance. Build gids equal row indexes for any
// shard count, so exactKNN ids compare directly.
func TestEngineShardedKNNQuality(t *testing.T) {
	data := clusteredData(2400, 24, 12, 75)
	e, err := BuildEngine(data, Config{Seed: 75, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	ctx := context.Background()
	qs := clusteredData(30, 24, 12, 76)
	hits, total := 0, 0
	for _, q := range qs {
		got, err := e.Search(ctx, q, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("got %d results", len(got))
		}
		exact := exactKNN(data, q, k)
		inExact := make(map[int32]bool, k)
		for _, r := range exact {
			inExact[r.ID] = true
		}
		for i, r := range got {
			if want := vec.L2(q, data[r.ID]); math.Abs(r.Dist-want) > 1e-9 {
				t.Fatalf("result %d: reported dist %v, true dist %v", i, r.Dist, want)
			}
			if r.Dist > DefaultC*exact[i].Dist+1e-9 {
				t.Fatalf("result %d: dist %v exceeds c×exact %v", i, r.Dist, DefaultC*exact[i].Dist)
			}
			if inExact[r.ID] {
				hits++
			}
		}
		total += k
	}
	if recall := float64(hits) / float64(total); recall < 0.8 {
		t.Fatalf("sharded recall %.3f < 0.8", recall)
	}
}

// Sharded ball cover: a query placed on a data point must come back
// with a neighbor within c·r, and the reported distance must be the
// true distance to the reported global id.
func TestEngineShardedBallCover(t *testing.T) {
	data := clusteredData(1500, 24, 10, 77)
	e, err := BuildEngine(data, Config{Seed: 77, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		q := data[i*37%len(data)]
		res, err := e.SearchBall(context.Background(), q, 1.0, SearchOptions{C: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("query on data point %d found nothing within c·r", i)
		}
		if res.Dist > 2.0+1e-9 {
			t.Fatalf("ball result dist %v exceeds c·r = 2", res.Dist)
		}
		if want := vec.L2(q, data[res.ID]); math.Abs(res.Dist-want) > 1e-9 {
			t.Fatalf("ball result dist %v, true dist to id %d is %v", res.Dist, res.ID, want)
		}
	}
}

// Sharded closest pairs must satisfy the (c,k) criterion against brute
// force — the self-join over the shards' forest has to surface pairs
// that straddle shards.
func TestEngineShardedPairsQuality(t *testing.T) {
	ds := cpDataset(t, 1200, 79)
	for _, shards := range []int{2, 3} {
		e, err := BuildEngine(ds.Points, Config{Seed: 79, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		const k = 10
		var st CPStats
		got, err := e.SearchPairs(context.Background(), k, SearchOptions{PairStats: &st})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := lscan.ClosestPairs(ds.Points, k)
		if err != nil {
			t.Fatal(err)
		}
		checkPairs(t, got, exact, k, DefaultC)
		if st.Verified == 0 || st.Rounds == 0 {
			t.Fatalf("stats not populated: %+v", st)
		}
	}
}

// Global ids stripe as gid = local·N + shard; filters and deletes must
// see global ids, and sequential inserts must stay consecutive.
func TestEngineShardedIDs(t *testing.T) {
	data := clusteredData(1000, 16, 8, 81)
	e, err := BuildEngine(data, Config{Seed: 81, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1000 || e.LiveLen() != 1000 {
		t.Fatalf("Len=%d LiveLen=%d", e.Len(), e.LiveLen())
	}
	// Sequential inserts continue the global id sequence.
	extra := clusteredData(9, 16, 8, 82)
	for i, p := range extra {
		id, err := e.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := int32(1000 + i); id != want {
			t.Fatalf("insert %d: id %d, want %d", i, id, want)
		}
	}
	// Deletion by global id.
	for _, gid := range []int32{0, 1, 2, 3, 500, 1003} {
		if !e.IsLive(gid) {
			t.Fatalf("id %d should be live", gid)
		}
		if err := e.Delete(gid); err != nil {
			t.Fatal(err)
		}
		if e.IsLive(gid) {
			t.Fatalf("id %d should be dead", gid)
		}
	}
	if e.Len() != 1009 || e.LiveLen() != 1003 {
		t.Fatalf("after deletes: Len=%d LiveLen=%d", e.Len(), e.LiveLen())
	}
	if err := e.Delete(500); err == nil {
		t.Fatal("double delete should fail")
	}
	if err := e.Delete(-1); err == nil {
		t.Fatal("negative id delete should fail")
	}
	if err := e.Delete(50_000); err == nil {
		t.Fatal("out-of-range delete should fail")
	}
	// Filters see global ids: admit only even gids, expect only even ids.
	got, err := e.Search(context.Background(), data[10], 12, SearchOptions{
		Filter: func(id int32) bool { return id%2 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("filtered search found nothing")
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Fatalf("filter admitted only even ids, got %d", r.ID)
		}
		if r.ID == 0 || r.ID == 2 {
			t.Fatalf("deleted id %d resurfaced", r.ID)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1009 || e.LiveLen() != 1003 {
		t.Fatalf("compact must preserve id space: Len=%d LiveLen=%d", e.Len(), e.LiveLen())
	}
	if e.IsLive(500) {
		t.Fatal("compact resurrected a deleted id")
	}
}

// Concurrent inserts across goroutines must produce unique live ids
// with no lost updates.
func TestEngineConcurrentInsertUniqueIDs(t *testing.T) {
	data := clusteredData(400, 16, 8, 83)
	e, err := BuildEngine(data, Config{Seed: 83, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	ids := make([][]int32, goroutines)
	points := clusteredData(goroutines*perG, 16, 8, 84)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id, err := e.Insert(points[g*perG+i])
				if err != nil {
					t.Error(err)
					return
				}
				ids[g] = append(ids[g], id)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[int32]bool)
	for _, gs := range ids {
		for _, id := range gs {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
			if !e.IsLive(id) {
				t.Fatalf("id %d not live after insert", id)
			}
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("%d unique ids for %d inserts", len(seen), goroutines*perG)
	}
	if e.Len() != 400+goroutines*perG {
		t.Fatalf("Len = %d", e.Len())
	}
}

// PLS5 round trip: a sharded engine must serialize and load back to
// identical answers, and both legacy single-index streams and 1-shard
// engine streams must load as 1-shard engines.
func TestEngineSerializeRoundTrip(t *testing.T) {
	data := clusteredData(900, 24, 8, 85)
	e, err := BuildEngine(data, Config{Seed: 85, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyChurn(t, e, clusteredData(30, 24, 8, 86), []int32{5, 250, 899})
	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 3 {
		t.Fatalf("loaded %d shards, want 3", loaded.Shards())
	}
	if loaded.Len() != e.Len() || loaded.LiveLen() != e.LiveLen() {
		t.Fatalf("loaded Len/LiveLen %d/%d, want %d/%d",
			loaded.Len(), loaded.LiveLen(), e.Len(), e.LiveLen())
	}
	ctx := context.Background()
	for _, q := range clusteredData(15, 24, 8, 87) {
		var sa, sb QueryStats
		ra, erra := e.Search(ctx, q, 9, SearchOptions{Stats: &sa})
		rb, errb := loaded.Search(ctx, q, 9, SearchOptions{Stats: &sb})
		if erra != nil || errb != nil {
			t.Fatal(erra, errb)
		}
		identicalResults(t, "loaded search", ra, rb)
		if sa != sb {
			t.Fatalf("loaded stats: %+v vs %+v", sa, sb)
		}
	}
	cpA, erra := e.SearchPairs(ctx, 6, SearchOptions{})
	cpB, errb := loaded.SearchPairs(ctx, 6, SearchOptions{})
	if erra != nil || errb != nil {
		t.Fatal(erra, errb)
	}
	for i := range cpA {
		if cpA[i] != cpB[i] {
			t.Fatalf("loaded pair %d: %+v vs %+v", i, cpA[i], cpB[i])
		}
	}
	// The loaded engine keeps assigning fresh ids.
	id, err := loaded.Insert(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != e.Len() {
		t.Fatalf("post-load insert id %d, want %d", id, e.Len())
	}

	// Legacy single-index stream → 1-shard engine.
	ix, err := Build(data, Config{Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if _, err := ix.WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	le, err := LoadEngine(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if le.Shards() != 1 {
		t.Fatalf("legacy stream loaded as %d shards", le.Shards())
	}
	q := data[3]
	ra, erra := ix.Search(ctx, q, 5, SearchOptions{})
	rb, errb := le.Search(ctx, q, 5, SearchOptions{})
	if erra != nil || errb != nil {
		t.Fatal(erra, errb)
	}
	identicalResults(t, "legacy load", ra, rb)
}

// Engine-level validation: shard-count bounds, dimension checks, and
// error parity with the bare index for invalid queries.
func TestEngineValidation(t *testing.T) {
	data := clusteredData(300, 16, 4, 89)
	if _, err := BuildEngine(data, Config{Seed: 89, Shards: -1}); err == nil {
		t.Fatal("negative shard count should fail")
	}
	if _, err := BuildEngine(data, Config{Seed: 89, Shards: MaxShards + 1}); err == nil {
		t.Fatal("oversized shard count should fail")
	}
	if _, err := BuildEngine(data[:3], Config{Seed: 89, Shards: 5}); err == nil {
		t.Fatal("more shards than points should fail")
	}
	ix, err := Build(data, Config{Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	e, err := BuildEngine(data, Config{Seed: 89, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := []float64{1, 2, 3}
	_, wantErr := ix.Search(ctx, bad, 5, SearchOptions{})
	_, gotErr := e.Search(ctx, bad, 5, SearchOptions{})
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("dimension error mismatch: %v vs %v", wantErr, gotErr)
	}
	_, wantErr = ix.Search(ctx, data[0], 0, SearchOptions{})
	_, gotErr = e.Search(ctx, data[0], 0, SearchOptions{})
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("k=0 error mismatch: %v vs %v", wantErr, gotErr)
	}
	if _, err := e.Insert(bad); err == nil {
		t.Fatal("wrong-dimension insert should fail")
	}
	if _, err := e.SearchBatch(ctx, [][]float64{data[0]}, 5, SearchOptions{BatchStats: make([]QueryStats, 0)}); err == nil {
		t.Fatal("short BatchStats should fail")
	}
	if _, err := e.SearchPairs(ctx, 0, SearchOptions{}); err == nil {
		t.Fatal("k=0 pairs should fail")
	}
	if _, err := e.SearchBall(ctx, data[0], 1, SearchOptions{C: 0.5}); err == nil {
		t.Fatal("c=0.5 ball cover should fail")
	}
	// Batch error at N>1 returns nil results (satellite contract).
	qs := [][]float64{data[0], bad, data[1]}
	res, err := e.SearchBatch(ctx, qs, 5, SearchOptions{})
	if err == nil {
		t.Fatal("bad batch query should fail")
	}
	if res != nil {
		t.Fatalf("failed sharded batch should return nil results, got %v", res)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.SearchBatch(canceled, [][]float64{data[0]}, 5, SearchOptions{}); err == nil {
		t.Fatal("canceled sharded batch should fail")
	}
}

// Queries racing a compacting writer must keep answering from the
// published snapshots without error — the point of the left-right
// scheme. The race detector validates the memory claims when the
// suite runs under -race.
func TestEngineQueriesDuringCompact(t *testing.T) {
	data := clusteredData(800, 16, 8, 91)
	e, err := BuildEngine(data, Config{Seed: 91, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := int32(-1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := e.Insert(data[i%len(data)])
			if err != nil {
				t.Error(err)
				return
			}
			if prev >= 0 {
				if err := e.Delete(prev); err != nil {
					t.Error(err)
					return
				}
			}
			prev = id
			if i%8 == 7 {
				if err := e.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				q := data[(r*31+i)%len(data)]
				res, err := e.Search(ctx, q, 5, SearchOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, got := range res {
					if got.Dist < 0 {
						t.Errorf("negative distance %v", got.Dist)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
