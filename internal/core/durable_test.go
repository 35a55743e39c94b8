package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vec"
	"repro/internal/wal"
)

func durableConfig(shards int) Config {
	// Paper-default M and pivots: the recall target of the churn oracle
	// assumes real index quality, not a toy projection.
	return Config{Seed: 7, DistSampleSize: 64, Shards: shards}
}

// TestDurableRoundTrip drives every mutation kind through a durable
// engine on a real directory, closes cleanly, and reopens.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := clusteredData(20, 3, 2, 7)
	e, err := BuildEngine(data, durableConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if e.Durable() {
		t.Fatal("durable before EnableDurability")
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	gid, err := e.Insert([]float64{1, 2, 3})
	if err != nil || gid != 20 {
		t.Fatalf("insert: id %d, err %v", gid, err)
	}
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	want := e.Info()
	if err := e.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseDurable()
	got := e2.Info()
	// Compactions is a session counter, not persisted state.
	want.Compactions, got.Compactions = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered info = %+v, want %+v", got, want)
	}
	if e2.IsLive(3) || !e2.IsLive(gid) {
		t.Fatal("recovered live set is wrong")
	}
	st, ok := e2.DurabilityStats()
	if !ok || st.ReplayRecords != 3 {
		t.Fatalf("replay stats = %+v, ok=%v (want 3 records)", st, ok)
	}
	// Id sequence continues where it left off.
	gid2, err := e2.Insert([]float64{4, 5, 6})
	if err != nil || gid2 != 21 {
		t.Fatalf("post-recovery insert: id %d, err %v", gid2, err)
	}
}

// TestReplaySkipsLegacyQuantizeRecords: set-quantize records, which
// logs written before PR 29 interleave with the other mutations, replay
// as no-ops — the engine recovered from a segment holding them is the
// one recovered from the same segment without them, byte for byte.
func TestReplaySkipsLegacyQuantizeRecords(t *testing.T) {
	plainDir, legacyDir := t.TempDir(), t.TempDir()
	e, err := BuildEngine(clusteredData(20, 3, 2, 7), durableConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(plainDir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.Insert([]float64{float64(i), 1, -2}); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(int32(3 * i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	// The same checkpoint, and segment 2 with a set-quantize record of
	// each kind (none, f32, i8) before every other mutation.
	ckpt, err := os.ReadFile(filepath.Join(plainDir, wal.CheckpointName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacyDir, wal.CheckpointName(1)), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	var ops []wal.Op
	if _, err := wal.ReplaySegments(wal.DirFS(plainDir), []uint64{2}, func(op wal.Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w, err := wal.CreateWriter(wal.DirFS(legacyDir), 2, wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if i%2 == 0 {
			if err := w.Append(wal.Op{Kind: wal.OpLegacyQuantize, Quant: uint8(i / 2 % 3)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := func(dir string) (EngineInfo, []byte, int) {
		e, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.CloseDurable()
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		st, _ := e.DurabilityStats()
		return e.Info(), buf.Bytes(), st.ReplayRecords
	}
	wantInfo, wantBytes, wantRecords := recovered(plainDir)
	gotInfo, gotBytes, gotRecords := recovered(legacyDir)
	if wantRecords != len(ops) || gotRecords != len(ops)+(len(ops)+1)/2 {
		t.Fatalf("replayed %d and %d records of %d mutations", wantRecords, gotRecords, len(ops))
	}
	if !reflect.DeepEqual(gotInfo, wantInfo) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("recovered with set-quantize records: %+v (%d bytes), without: %+v (%d bytes)",
			gotInfo, len(gotBytes), wantInfo, len(wantBytes))
	}
}

// TestDurableRecoveryKeepsTheGeneration: a checkpoint is a snapshot,
// and an engine recovered from one — in every generationStates state,
// with a logged insert and delete replayed on top — is the engine that
// never stopped (requireSameEngine), tail, dead rows and trees alike.
func TestDurableRecoveryKeepsTheGeneration(t *testing.T) {
	for _, st := range generationStates() {
		steady, crashed := st.make(t), st.make(t)
		fs := wal.DirFS(t.TempDir())
		if err := crashed.EnableDurability(fs, wal.SyncPolicy{}); err != nil {
			t.Fatal(err)
		}
		p := nearCopy(rand.New(rand.NewSource(115)), generationData[7])
		for _, e := range []*Engine{steady, crashed} {
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(4); err != nil {
				t.Fatal(err)
			}
		}
		if err := crashed.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenDurable(fs, wal.SyncPolicy{})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if st, _ := recovered.DurabilityStats(); st.ReplayRecords != 2 {
			t.Fatalf("recovery replayed %d records, want the insert and the delete", st.ReplayRecords)
		}
		requireSameEngine(t, st.name, steady, recovered)
		if err := recovered.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnableDurabilityRejectsExistingState(t *testing.T) {
	dir := t.TempDir()
	data := clusteredData(8, 3, 2, 7)
	e, err := BuildEngine(data, durableConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	e.CloseDurable()
	e2, err := BuildEngine(data, durableConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err == nil {
		t.Fatal("EnableDurability logged over existing state")
	}
}

func TestOpenDurableNoState(t *testing.T) {
	if _, err := OpenDurable(wal.DirFS(t.TempDir()), wal.SyncPolicy{}); !errors.Is(err, ErrNoState) {
		t.Fatalf("err = %v, want ErrNoState", err)
	}
}

// TestDurableCheckpointRotation checks the full rotation protocol:
// checkpoints supersede segments, obsolete files are removed, and
// recovery replays only the post-checkpoint tail.
func TestDurableCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	e, err := BuildEngine(clusteredData(10, 3, 2, 7), durableConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Insert([]float64{float64(i), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckpointDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert([]float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	e.CloseDurable()

	names, err := wal.DirFS(dir).ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{wal.CheckpointName(2), wal.SegmentName(3)}
	sort.Strings(names)
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("after rotation dir = %v, want %v", names, want)
	}

	e2, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseDurable()
	if e2.Len() != 16 || !e2.IsLive(15) {
		t.Fatalf("recovered Len %d, IsLive(15) %v", e2.Len(), e2.IsLive(15))
	}
	st, _ := e2.DurabilityStats()
	if st.ReplayRecords != 1 {
		t.Fatalf("replayed %d records, want only the post-checkpoint insert", st.ReplayRecords)
	}
}

// TestOpenDurableLostCheckpointIsFatal deletes the base checkpoint out
// from under a segment: recovery must refuse rather than replay onto
// the wrong base.
func TestOpenDurableLostCheckpointIsFatal(t *testing.T) {
	dir := t.TempDir()
	e, err := BuildEngine(clusteredData(8, 3, 2, 7), durableConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
		t.Fatal(err)
	}
	e.Insert([]float64{1, 1, 1})
	e.CloseDurable()
	// Simulate a lost checkpoint: segment 2 exists, checkpoint 1 gone.
	if err := os.Remove(filepath.Join(dir, wal.CheckpointName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// modelOp mirrors one acknowledged mutation for the churn oracle.
type modelOp struct {
	kind wal.OpKind
	id   int32
	vec  []float64
}

// modelState is the expected engine state after a prefix of acked ops.
type modelState struct {
	ids  int // ids ever assigned
	live map[int32][]float64
}

func applyModel(base modelState, op modelOp) modelState {
	next := modelState{ids: base.ids, live: make(map[int32][]float64, len(base.live)+1)}
	for id, v := range base.live {
		next.live[id] = v
	}
	switch op.kind {
	case wal.OpInsert:
		next.live[op.id] = op.vec
		next.ids++
	case wal.OpDelete:
		delete(next.live, op.id)
	}
	return next
}

func matchesModel(e *Engine, m modelState) bool {
	if e.Len() != m.ids || e.LiveLen() != len(m.live) {
		return false
	}
	for id := int32(0); id < int32(m.ids); id++ {
		if _, ok := m.live[id]; ok != e.IsLive(id) {
			return false
		}
	}
	return true
}

// churnOracle asserts recall ≥ 0.8 and per-rank ratio ≤ c for k-NN
// queries against the recovered engine, with ground truth brute-forced
// over the model's live set.
func churnOracle(t *testing.T, e *Engine, m modelState, rng *rand.Rand, c float64) {
	t.Helper()
	k := 3
	if len(m.live) == 0 {
		return
	}
	if len(m.live) < k {
		k = len(m.live)
	}
	type pair struct {
		id   int32
		dist float64
	}
	// Query near live points (the workload the recall target is defined
	// over — far-field queries degenerate to near-ties where recall is
	// meaningless for any LSH scheme).
	ids := make([]int32, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var hits, total int
	for qi := 0; qi < 5; qi++ {
		base := m.live[ids[rng.Intn(len(ids))]]
		q := make([]float64, len(base))
		for i, v := range base {
			q[i] = v + rng.NormFloat64()*0.1
		}
		truth := make([]pair, 0, len(m.live))
		for id, v := range m.live {
			truth = append(truth, pair{id, vec.L2(q, v)})
		}
		sort.Slice(truth, func(i, j int) bool {
			if truth[i].dist != truth[j].dist {
				return truth[i].dist < truth[j].dist
			}
			return truth[i].id < truth[j].id
		})
		res, err := e.Search(context.Background(), q, k, SearchOptions{C: c})
		if err != nil {
			t.Fatalf("oracle search: %v", err)
		}
		kth := truth[k-1].dist
		for i, r := range res {
			if r.Dist <= kth*(1+1e-9)+1e-12 {
				hits++
			}
			if want := truth[i].dist; r.Dist > c*want*(1+1e-9)+1e-12 {
				t.Fatalf("rank %d: got dist %g, exact %g — ratio above c=%g", i, r.Dist, want, c)
			}
		}
		total += k
	}
	if recall := float64(hits) / float64(total); recall < 0.8 {
		t.Fatalf("churn oracle recall %.3f < 0.8 over recovered live set (%d points)", recall, len(m.live))
	}
}

// TestDurableKillMidChurn is the headline fault-injection suite: 120
// randomized crash points during insert/delete/compact/checkpoint
// churn, each followed by kill -9 or power-cut simulation,
// recovery, and invariant checks:
//
//   - reopen always succeeds (tearing is never corruption);
//   - the recovered state is exactly some prefix of the acknowledged
//     op sequence — no half-applied op, no resurrected op;
//   - the prefix covers at least every fsync-acknowledged op, and
//     under kill -9 (bytes survive) exactly every acknowledged op;
//   - the churn oracle (recall ≥ 0.8, ratio ≤ c) passes on the
//     recovered engine;
//   - the id sequence continues without gaps or reuse.
func TestDurableKillMidChurn(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	const c = 2.0
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(1000 + iter)))
		shards := 1 + iter%3
		base := clusteredData(30, 3, 2, 7)
		e, err := BuildEngine(base, durableConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		policies := []wal.SyncPolicy{{}, {EveryN: 4}, {EveryN: 16}}
		policy := policies[iter%len(policies)]
		inj := wal.NewInjector()
		if err := e.EnableDurability(inj, policy); err != nil {
			t.Fatal(err)
		}

		// Arm a failpoint most iterations; mode cycles through all three.
		modes := []wal.FailMode{wal.FailErr, wal.FailShort, wal.FailTorn}
		var mode wal.FailMode
		armed := iter%4 != 3
		if armed {
			mode = modes[iter%len(modes)]
			inj.SetFailpoint(1+rng.Intn(70), mode)
		}

		state := modelState{ids: 30, live: make(map[int32][]float64, 30)}
		for i, p := range base {
			state.live[int32(i)] = p
		}
		states := []modelState{state} // states[j] = state after j acked ops
		var acked []modelOp
		opsAtLastCkpt := 0

		churn := func() bool { // returns true if the run was cut short
			for len(acked) < 40 {
				cur := states[len(states)-1]
				var op modelOp
				var err error
				switch r := rng.Intn(100); {
				case r < 55:
					// Inserts cluster around existing data, like the build
					// set — isolated far-field points would make recall@k
					// degenerate to near-tie coin flips.
					anchor := base[rng.Intn(len(base))]
					v := make([]float64, len(anchor))
					for i, x := range anchor {
						v[i] = x + rng.NormFloat64()
					}
					var gid int32
					gid, err = e.Insert(v)
					op = modelOp{kind: wal.OpInsert, id: gid, vec: v}
				case r < 80:
					target := int32(rng.Intn(cur.ids))
					if _, live := cur.live[target]; !live || len(cur.live) <= 2 {
						continue
					}
					err = e.Delete(target)
					op = modelOp{kind: wal.OpDelete, id: target}
				case r < 94:
					err = e.Compact()
					op = modelOp{kind: wal.OpCompact}
				default:
					if err = e.CheckpointDurable(); err == nil {
						opsAtLastCkpt = len(acked)
						continue
					}
				}
				if err != nil {
					if inj.Tripped() || errors.Is(err, wal.ErrInjected) {
						return true
					}
					t.Fatalf("iter %d: unexpected churn error: %v", iter, err)
				}
				acked = append(acked, op)
				states = append(states, applyModel(states[len(states)-1], op))
			}
			return false
		}
		churn()

		st, ok := e.DurabilityStats()
		if !ok {
			t.Fatalf("iter %d: no durability stats", iter)
		}
		syncedLB := opsAtLastCkpt + int(st.Synced)

		// Crash. Torn writes only make sense under power loss — under
		// kill -9 the half-accepted record's bytes survive page cache.
		tornTripped := armed && mode == wal.FailTorn && inj.Tripped()
		powerCut := tornTripped || iter%2 == 0
		if powerCut {
			inj.PowerCut(func(string, int) int { return rng.Intn(64) })
		} else {
			inj.Crash()
		}
		e.CloseDurable() // stops the stale process's flusher goroutine

		e2, err := OpenDurable(inj, policy)
		if err != nil {
			t.Fatalf("iter %d: recovery failed (mode %v, powerCut %v): %v", iter, mode, powerCut, err)
		}

		// The recovered state must be exactly states[j] for one j in
		// [syncedLB, len(acked)] — and under kill -9, j = len(acked).
		// Scan descending: state-neutral ops (Compact) make adjacent
		// prefixes indistinguishable,
		// and the longest match is the meaningful one.
		matched := -1
		for j := len(acked); j >= syncedLB; j-- {
			if matchesModel(e2, states[j]) {
				matched = j
				break
			}
		}
		if matched < 0 {
			t.Fatalf("iter %d: recovered state matches no acked prefix in [%d, %d] (Len %d, Live %d)",
				iter, syncedLB, len(acked), e2.Len(), e2.LiveLen())
		}
		if !powerCut && matched != len(acked) {
			t.Fatalf("iter %d: kill -9 lost acknowledged ops: recovered prefix %d of %d", iter, matched, len(acked))
		}

		churnOracle(t, e2, states[matched], rng, c)

		// Id continuity: the next id is the count of ids ever assigned —
		// recovery must never reuse or skip.
		gid, err := e2.Insert([]float64{1, 2, 3})
		if err != nil {
			t.Fatalf("iter %d: post-recovery insert: %v", iter, err)
		}
		if int(gid) != states[matched].ids {
			t.Fatalf("iter %d: post-recovery id %d, want %d", iter, gid, states[matched].ids)
		}
		// And the recovered engine is itself durable: clean close, reopen.
		if err := e2.CloseDurable(); err != nil {
			t.Fatalf("iter %d: close recovered engine: %v", iter, err)
		}
		e3, err := OpenDurable(inj, policy)
		if err != nil {
			t.Fatalf("iter %d: second recovery: %v", iter, err)
		}
		if e3.Len() != states[matched].ids+1 {
			t.Fatalf("iter %d: second recovery lost the post-recovery insert", iter)
		}
		e3.CloseDurable()
	}
}
