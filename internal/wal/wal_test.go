package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testOps() []Op {
	return []Op{
		{Kind: OpInsert, ID: 0, Vec: []float64{1, 2, 3}},
		{Kind: OpInsert, ID: 1, Vec: []float64{-4.5, 0, 6.25}},
		{Kind: OpDelete, ID: 0},
		{Kind: OpLegacyQuantize, Quant: 2},
		{Kind: OpCompact},
		{Kind: OpInsert, ID: 2, Vec: []float64{7, 8, 9}},
	}
}

// writeSegment appends ops to a fresh segment via the real Writer and
// returns the backing file path.
func writeSegment(t *testing.T, dir string, seq uint64, ops []Op, policy SyncPolicy) string {
	t.Helper()
	w, err := CreateWriter(DirFS(dir), seq, policy)
	if err != nil {
		t.Fatalf("CreateWriter: %v", err)
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return filepath.Join(dir, SegmentName(seq))
}

func replayAll(t *testing.T, dir string, seqs []uint64) ([]Op, ReplayStats, error) {
	t.Helper()
	var got []Op
	stats, err := ReplaySegments(DirFS(dir), seqs, func(op Op) error {
		got = append(got, op)
		return nil
	})
	return got, stats, err
}

func TestWriterReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := testOps()
	writeSegment(t, dir, 3, ops[:4], SyncPolicy{})
	writeSegment(t, dir, 4, ops[4:], SyncPolicy{EveryN: 100})
	got, stats, err := replayAll(t, dir, []uint64{3, 4})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("replayed ops = %+v, want %+v", got, ops)
	}
	if stats.Records != len(ops) || stats.Segments != 2 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSegmentNames(t *testing.T) {
	if got := SegmentName(7); got != "wal-0000000000000007.log" {
		t.Fatalf("SegmentName = %q", got)
	}
	for _, name := range []string{SegmentName(42), CheckpointName(42)} {
		segSeq, segOK := ParseSegmentName(name)
		ckSeq, ckOK := ParseCheckpointName(name)
		if segOK == ckOK {
			t.Fatalf("%q parsed as both or neither (seg %v, ck %v)", name, segOK, ckOK)
		}
		if segOK && segSeq != 42 || ckOK && ckSeq != 42 {
			t.Fatalf("%q parsed to seq %d/%d", name, segSeq, ckSeq)
		}
	}
	for _, bad := range []string{"wal-7.log", "wal-000000000000000a.log", "x", "checkpoint-.pmlsh"} {
		if _, ok := ParseSegmentName(bad); ok {
			t.Fatalf("ParseSegmentName accepted %q", bad)
		}
		if _, ok := ParseCheckpointName(bad); ok {
			t.Fatalf("ParseCheckpointName accepted %q", bad)
		}
	}
}

// mutate rewrites one segment file through fn.
func mutate(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	ops := testOps()
	path := writeSegment(t, dir, 1, ops, SyncPolicy{})
	mutate(t, path, func(b []byte) []byte { return b[:len(b)-5] })
	got, stats, err := replayAll(t, dir, []uint64{1})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(ops)-1 || !reflect.DeepEqual(got, ops[:len(ops)-1]) {
		t.Fatalf("replayed %d ops, want %d without the torn tail", len(got), len(ops)-1)
	}
	if stats.TornBytes == 0 {
		t.Fatalf("stats report no torn bytes: %+v", stats)
	}
	// The repair truncated the file: replaying again is clean.
	got2, stats2, err := replayAll(t, dir, []uint64{1})
	if err != nil || !reflect.DeepEqual(got2, got) || stats2.TornBytes != 0 {
		t.Fatalf("second replay: ops %d, stats %+v, err %v", len(got2), stats2, err)
	}
}

func TestTornTailCRCOnFinalRecord(t *testing.T) {
	dir := t.TempDir()
	ops := testOps()
	path := writeSegment(t, dir, 1, ops, SyncPolicy{})
	mutate(t, path, func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	got, stats, err := replayAll(t, dir, []uint64{1})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(got, ops[:len(ops)-1]) {
		t.Fatalf("replayed %+v, want all but the final op", got)
	}
	if stats.TornBytes == 0 {
		t.Fatal("expected torn bytes")
	}
}

func TestCorruptionBeforeTailIsFatal(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, testOps(), SyncPolicy{})
	// Flip a byte in the first record's payload: CRC fails with data
	// following — not a torn tail.
	mutate(t, path, func(b []byte) []byte { b[segmentHeaderLen+frameHeaderLen] ^= 0xff; return b })
	_, _, err := replayAll(t, dir, []uint64{1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailOnNonFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	ops := testOps()
	path := writeSegment(t, dir, 1, ops, SyncPolicy{})
	writeSegment(t, dir, 2, ops[:1], SyncPolicy{})
	mutate(t, path, func(b []byte) []byte { return b[:len(b)-5] })
	_, _, err := replayAll(t, dir, []uint64{1, 2})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestImplausibleLengthIsFatal(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, testOps()[:2], SyncPolicy{})
	mutate(t, path, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[segmentHeaderLen:], MaxRecordLen+1)
		return b
	})
	_, _, err := replayAll(t, dir, []uint64{1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, testOps()[:1], SyncPolicy{})
	mutate(t, path, func(b []byte) []byte { b[0] = 'X'; return b })
	if _, _, err := replayAll(t, dir, []uint64{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
	mutate(t, path, func(b []byte) []byte {
		b[0] = 'P'
		binary.LittleEndian.PutUint64(b[5:], 99) // header seq != file name seq
		return b
	})
	if _, _, err := replayAll(t, dir, []uint64{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("seq mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestShortHeaderSegmentIsEmpty(t *testing.T) {
	dir := t.TempDir()
	// A husk left by a torn segment creation: shorter than the header.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(2)), []byte("PW"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Final: recovers empty, truncating the husk.
	got, stats, err := replayAll(t, dir, []uint64{2})
	if err != nil || len(got) != 0 || stats.TornBytes != 2 {
		t.Fatalf("final husk: ops %d, stats %+v, err %v", len(got), stats, err)
	}
	// Non-final (recovery rotation created segment 3 after a crash
	// during segment 2's creation): still just empty, not corrupt.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(2)), []byte("PW"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, dir, 3, testOps()[:1], SyncPolicy{})
	got, _, err = replayAll(t, dir, []uint64{2, 3})
	if err != nil || len(got) != 1 {
		t.Fatalf("husk before final: ops %d, err %v", len(got), err)
	}
}

func TestPlan(t *testing.T) {
	cases := []struct {
		name    string
		st      DirState
		ckpt    uint64
		hasCkpt bool
		replay  []uint64
		wantErr bool
	}{
		{name: "empty", st: DirState{}},
		{name: "fresh enable", st: DirState{Checkpoints: []uint64{1}, Segments: []uint64{2}},
			ckpt: 1, hasCkpt: true, replay: []uint64{2}},
		{name: "after checkpoints", st: DirState{Checkpoints: []uint64{3}, Segments: []uint64{4, 5}},
			ckpt: 3, hasCkpt: true, replay: []uint64{4, 5}},
		{name: "stale files linger", st: DirState{Checkpoints: []uint64{1, 3}, Segments: []uint64{2, 3, 4}},
			ckpt: 3, hasCkpt: true, replay: []uint64{4}},
		{name: "checkpoint newer than segments", st: DirState{Checkpoints: []uint64{5}, Segments: []uint64{4, 5}},
			ckpt: 5, hasCkpt: true},
		{name: "unbridgeable gap", st: DirState{Checkpoints: []uint64{1, 3}, Segments: []uint64{2, 3, 5}},
			wantErr: true},
		{name: "stale run behind newest checkpoint", st: DirState{Checkpoints: []uint64{1, 3}, Segments: []uint64{2, 3, 4, 5}},
			ckpt: 3, hasCkpt: true, replay: []uint64{4, 5}},
		{name: "segments without checkpoint", st: DirState{Segments: []uint64{1, 2}},
			replay: []uint64{1, 2}},
		{name: "segments without checkpoint, gap", st: DirState{Segments: []uint64{2, 3}}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckpt, hasCkpt, replay, err := tc.st.Plan()
			if tc.wantErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if ckpt != tc.ckpt || hasCkpt != tc.hasCkpt || !reflect.DeepEqual(replay, tc.replay) {
				t.Fatalf("Plan = (%d, %v, %v), want (%d, %v, %v)",
					ckpt, hasCkpt, replay, tc.ckpt, tc.hasCkpt, tc.replay)
			}
		})
	}
}

func TestGroupCommitEveryN(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWriter(DirFS(dir), 1, SyncPolicy{EveryN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		if err := w.Append(Op{Kind: OpDelete, ID: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Appended() != 2 || w.Synced() != 0 {
		t.Fatalf("after 2 appends: appended %d, synced %d", w.Appended(), w.Synced())
	}
	if err := w.Append(Op{Kind: OpDelete, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if w.Synced() != 3 || w.Syncs() != 1 {
		t.Fatalf("after 3rd append: synced %d, syncs %d", w.Synced(), w.Syncs())
	}
}

func TestGroupCommitInterval(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWriter(DirFS(dir), 1, SyncPolicy{EveryN: 1 << 20, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Op{Kind: OpCompact}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Synced() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never synced (synced %d)", w.Synced())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriterPoisoning(t *testing.T) {
	inj := NewInjector()
	w, err := CreateWriter(inj, 1, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetFailpoint(1, FailErr)
	if err := w.Append(Op{Kind: OpCompact}); !errors.Is(err, ErrInjected) {
		t.Fatalf("append did not surface the injected fault: %v", err)
	}
	inj.Crash() // clears the trip — but the writer must stay poisoned
	if err := w.Append(Op{Kind: OpCompact}); err == nil {
		t.Fatal("poisoned writer accepted an append")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("poisoned writer accepted a sync")
	}
}

func TestAtomicFile(t *testing.T) {
	dir := t.TempDir()
	fs := DirFS(dir)
	af, err := CreateAtomic(fs, "target")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "target")); !os.IsNotExist(err) {
		t.Fatal("target visible before Commit")
	}
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "target"))
	if err != nil || string(data) != "payload" {
		t.Fatalf("target = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "target.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file survived Commit")
	}

	af2, err := CreateAtomic(fs, "target")
	if err != nil {
		t.Fatal(err)
	}
	af2.Write([]byte("doomed"))
	af2.Abort()
	data, _ = os.ReadFile(filepath.Join(dir, "target"))
	if string(data) != "payload" {
		t.Fatalf("Abort damaged the target: %q", data)
	}
}
