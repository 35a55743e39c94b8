package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wal"
)

// ErrNoState is returned by OpenDurable when the state directory holds
// no checkpoint and no log segments — nothing to recover. The caller
// decides how to bootstrap (build from a dataset, then
// EnableDurability).
var ErrNoState = errors.New("core: state directory has no durable state")

// ErrDurability marks a mutation that failed on the durable side: its
// record could not be appended to (or synced in) the write-ahead log —
// a full disk, an I/O error, a writer poisoned by an earlier one — or
// was logged and then could not be applied. The request was sound; the
// engine could not make it durable, and keeps failing the same way
// until a checkpoint rotates the log. It wraps the underlying wal
// error; test with errors.Is.
var ErrDurability = errors.New("core: durable write failed")

// durable is the engine's write-ahead logging side: a WAL writer plus
// the mutex that serializes all durable mutations.
//
// Every mutation appends its record to the log — and, per the sync
// policy, waits for fsync — *before* the in-memory apply, so a
// mutation whose call returned success is in the log, and group-commit
// acknowledgment (Synced) never runs ahead of the in-memory state.
// One global mutex orders mutations identically in the log and in
// memory; queries are untouched — they read published views and never
// see this lock.
type durable struct {
	mu     sync.Mutex
	fs     wal.FS
	policy wal.SyncPolicy
	w      *wal.Writer

	checkpoints uint64
	replay      wal.ReplayStats
}

// DurabilityStats is a point-in-time snapshot of the WAL side for
// metrics and tests.
type DurabilityStats struct {
	// Appended and Synced count records handed to the OS vs records
	// covered by fsync (the durable-acknowledged prefix).
	Appended, Synced uint64
	// Syncs counts fsync calls on the active segment (group commit
	// collapses many appends into few syncs).
	Syncs uint64
	// ActiveSegment is the sequence number of the segment being
	// appended to.
	ActiveSegment uint64
	// Checkpoints counts durable checkpoints taken since open.
	Checkpoints uint64
	// ReplaySegments, ReplayRecords and ReplayTornBytes describe the
	// recovery that produced this engine (all zero for a fresh
	// EnableDurability).
	ReplaySegments, ReplayRecords int
	ReplayTornBytes               int64
}

// DurabilityStats returns WAL counters, or ok=false when the engine
// has no durability attached.
func (e *Engine) DurabilityStats() (DurabilityStats, bool) {
	d := e.dur
	if d == nil {
		return DurabilityStats{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return DurabilityStats{
		Appended:        d.w.Appended(),
		Synced:          d.w.Synced(),
		Syncs:           d.w.Syncs(),
		ActiveSegment:   d.w.Seq(),
		Checkpoints:     d.checkpoints,
		ReplaySegments:  d.replay.Segments,
		ReplayRecords:   d.replay.Records,
		ReplayTornBytes: d.replay.TornBytes,
	}, true
}

// Durable reports whether the engine writes a WAL.
func (e *Engine) Durable() bool { return e.dur != nil }

// EnableDurability attaches write-ahead logging to a freshly built
// engine: the current state is written as the first checkpoint (it is
// the base every later replay builds on), then an empty segment opens
// for mutations. The directory must hold no prior durable state —
// reopening existing state is OpenDurable's job, and silently logging
// over it would orphan acknowledged history.
func (e *Engine) EnableDurability(fs wal.FS, policy wal.SyncPolicy) error {
	if e.dur != nil {
		return errors.New("core: durability already enabled")
	}
	st, err := wal.ScanDir(fs)
	if err != nil {
		return err
	}
	if len(st.Checkpoints) > 0 || len(st.Segments) > 0 {
		return fmt.Errorf("core: state directory already holds durable state (checkpoints %v, segments %v); open it with OpenDurable",
			st.Checkpoints, st.Segments)
	}
	if err := writeCheckpoint(fs, 1, e); err != nil {
		return err
	}
	w, err := wal.CreateWriter(fs, 2, policy)
	if err != nil {
		return err
	}
	e.dur = &durable{fs: fs, policy: policy, w: w}
	return nil
}

// OpenDurable recovers an engine from a state directory: load the
// newest usable checkpoint, replay the newer log segments (repairing a
// torn tail on the last), verify the id sequence, rotate to a fresh
// segment, and serve. The zero-value policy syncs every append.
func OpenDurable(fs wal.FS, policy wal.SyncPolicy) (*Engine, error) {
	st, err := wal.ScanDir(fs)
	if err != nil {
		return nil, err
	}
	ckpt, hasCkpt, replaySeqs, err := st.Plan()
	if err != nil {
		return nil, err
	}
	if !hasCkpt {
		if len(replaySeqs) == 0 {
			return nil, ErrNoState
		}
		// Every state directory starts with EnableDurability's base
		// checkpoint; segments without any checkpoint mean it was lost.
		return nil, fmt.Errorf("%w: segments %v present but no checkpoint", wal.ErrCorrupt, st.Segments)
	}
	f, err := fs.Open(wal.CheckpointName(ckpt))
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint %d: %w", ckpt, err)
	}
	e, err := LoadEngine(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint %d: %w", ckpt, err)
	}
	stats, err := wal.ReplaySegments(fs, replaySeqs, e.applyLogged)
	if err != nil {
		return nil, err
	}
	next := ckpt + 1
	if n := len(replaySeqs); n > 0 {
		next = replaySeqs[n-1] + 1
	}
	w, err := wal.CreateWriter(fs, next, policy)
	if err != nil {
		return nil, err
	}
	e.dur = &durable{fs: fs, policy: policy, w: w, replay: stats}
	return e, nil
}

// applyLogged applies one logged record — just written, or replayed —
// through the in-memory paths. Inserts must produce the logged global id
// exactly — the log and the engine's id assignment are both
// deterministic, so a mismatch means the log does not belong to the
// state it is being applied onto.
func (e *Engine) applyLogged(op wal.Op) error {
	switch op.Kind {
	case wal.OpInsert:
		gid, err := e.insertMem(op.Vec)
		if err != nil {
			return err
		}
		if gid != op.ID {
			return fmt.Errorf("%w: logged insert produced id %d, the log recorded %d", wal.ErrCorrupt, gid, op.ID)
		}
		return nil
	case wal.OpDelete:
		return e.deleteMem(op.ID)
	case wal.OpCompact:
		return e.compactMem()
	case wal.OpLegacyQuantize:
		// Written before PR 29 retired quantized screening, which was
		// reject-only: the index answers the same without the codec.
		return nil
	}
	return fmt.Errorf("%w: unknown op kind %d", wal.ErrCorrupt, op.Kind)
}

// commit is the one durable write: op's record goes to the log — and,
// per the sync policy, to disk — and only then is it applied, through
// the path a replay of that record will take. The caller holds d.mu and
// has validated everything the apply could reject the operation for, so
// no record that cannot be replayed reaches the log; one that is logged
// and then fails to apply would fail the next replay the same way, and
// there is nothing to repair here.
func (d *durable) commit(e *Engine, op wal.Op) error {
	if err := d.w.Append(op); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	if err := e.applyLogged(op); err != nil {
		return fmt.Errorf("%w: logged but not applied: %w", ErrDurability, err)
	}
	return nil
}

// insert is the durable Insert path: validate, predict the id the
// in-memory apply will assign (applyLogged checks it did), commit.
func (d *durable) insert(e *Engine, p []float64) (int32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := e.shards[0].check(p); err != nil {
		return 0, err
	}
	// The id Insert will assign is fully determined here: d.mu is the
	// only mutation path, so rr and the target shard's length are
	// stable until the apply.
	n := len(e.shards)
	s := int(e.rr.Load() % int64(n))
	gid := int32(e.shards[s].Len())*int32(n) + int32(s)
	if err := d.commit(e, wal.Op{Kind: wal.OpInsert, ID: gid, Vec: p}); err != nil {
		return 0, err
	}
	return gid, nil
}

// delete is the durable Delete path.
func (d *durable) delete(e *Engine, gid int32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !e.IsLive(gid) {
		// Doomed to fail: let the in-memory path produce its usual
		// error without logging anything.
		return e.deleteMem(gid)
	}
	return d.commit(e, wal.Op{Kind: wal.OpDelete, ID: gid})
}

// compact is the durable Compact path. Only explicit compactions are
// logged — the auto-compactions Insert and Delete can trigger replay
// deterministically from those records themselves: a checkpoint carries
// each shard's dead rows and tail exactly.
func (d *durable) compact(e *Engine) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.commit(e, wal.Op{Kind: wal.OpCompact})
}

// CheckpointDurable writes the engine's current state as a durable
// checkpoint and rotates the log: the active segment A is synced and
// closed, checkpoint-A lands atomically (covering everything logged
// through A), a fresh segment A+1 opens, and obsolete files — segments
// ≤ A, checkpoints < A — are removed. Mutations stall for the
// duration; queries keep answering from the published views.
//
// A crash anywhere in the sequence recovers: until checkpoint-A is
// durable, recovery uses the previous checkpoint and replays segment A
// (its close-sync makes it complete); after it, segment A is obsolete
// whether or not the deletions happened.
func (e *Engine) CheckpointDurable() error {
	d := e.dur
	if d == nil {
		return errors.New("core: durability not enabled")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.w.Seq()
	// A close error (poisoned writer, failed tail sync) is deliberately
	// not fatal: the in-memory state holds every acknowledged mutation,
	// so the checkpoint below supersedes the damaged segment and repairs
	// durability — if it can't land, its own error reports that.
	_ = d.w.Close()
	if err := writeCheckpoint(d.fs, seq, e); err != nil {
		return fmt.Errorf("core: checkpoint %d: %w", seq, err)
	}
	w, err := wal.CreateWriter(d.fs, seq+1, d.policy)
	if err != nil {
		return fmt.Errorf("core: rotate to segment %d: %w", seq+1, err)
	}
	d.w = w
	d.checkpoints++
	// Cleanup is best-effort: recovery planning skips stale files, they
	// only cost space until the next successful pass.
	if st, err := wal.ScanDir(d.fs); err == nil {
		for _, s := range st.Segments {
			if s <= seq {
				d.fs.Remove(wal.SegmentName(s))
			}
		}
		for _, c := range st.Checkpoints {
			if c < seq {
				d.fs.Remove(wal.CheckpointName(c))
			}
		}
		d.fs.SyncDir()
	}
	return nil
}

// CloseDurable syncs and closes the active segment (a clean shutdown:
// reopening replays it without tail repair). The engine remains usable
// for queries; further mutations fail.
func (e *Engine) CloseDurable() error {
	d := e.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.w.Close()
}

// writeCheckpoint streams the engine into checkpoint-<seq> atomically.
func writeCheckpoint(fs wal.FS, seq uint64, e *Engine) error {
	af, err := wal.CreateAtomic(fs, wal.CheckpointName(seq))
	if err != nil {
		return err
	}
	if _, err := e.WriteTo(af); err != nil {
		af.Abort()
		return fmt.Errorf("core: write checkpoint %d: %w", seq, err)
	}
	return af.Commit()
}
