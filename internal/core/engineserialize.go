package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// pls5Magic heads the sharded container format: "PLS5", a uint32 shard
// count, then each shard as a uint64 byte length followed by that
// shard's complete single-index stream (PLS8 — PLS7 and PLS4 before
// it — or a
// PLS6 envelope for non-L2 metrics — newEngine rejects shards whose
// metrics disagree,
// so a mixed container fails to load). The length prefixes
// exist because Load buffers its reader and may consume past the end
// of one shard's stream — LoadEngine hands each inner Load an
// io.LimitReader so over-reads stop at the shard boundary.
//
// A 1-shard engine writes a plain single-index stream with no
// container at all, so Engine serialization at the default shard count
// is byte-identical to Index.WriteTo, and a bare PLS4, PLS7 or PLS8
// stream loads as a 1-shard engine (PLS1–PLS3 are refused by name).
var pls5Magic = [4]byte{'P', 'L', 'S', '5'}

// WriteTo serializes the engine. The snapshot is consistent per shard
// (each shard is written from one view); like queries, serialization
// never blocks writers and is never blocked by them.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	if len(e.shards) == 1 {
		return e.shards[0].WriteTo(w)
	}
	var total int64
	if n, err := w.Write(pls5Magic[:]); err != nil {
		return total, fmt.Errorf("core: write engine magic: %w", err)
	} else {
		total += int64(n)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(e.shards))); err != nil {
		return total, fmt.Errorf("core: write shard count: %w", err)
	}
	total += 4
	var buf bytes.Buffer
	for s, ix := range e.shards {
		buf.Reset()
		if _, err := ix.WriteTo(&buf); err != nil {
			return total, fmt.Errorf("core: write shard %d: %w", s, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
			return total, fmt.Errorf("core: write shard %d length: %w", s, err)
		}
		total += 8
		n, err := w.Write(buf.Bytes())
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("core: write shard %d: %w", s, err)
		}
	}
	return total, nil
}

// LoadEngine deserializes an engine written with Engine.WriteTo. It
// also accepts any single-index stream (Index.WriteTo output or a
// pre-sharding snapshot), which loads as a 1-shard engine.
func LoadEngine(r io.Reader) (*Engine, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	if magic != pls5Magic {
		// A single-index stream: put the magic back and let Load sniff it.
		ix, err := Load(io.MultiReader(bytes.NewReader(magic[:]), r))
		if err != nil {
			return nil, err
		}
		return newEngine([]*Index{ix})
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("core: read shard count: %w", err)
	}
	if count < 2 || count > MaxShards {
		return nil, fmt.Errorf("core: corrupt shard count %d", count)
	}
	inners := make([]*Index, count)
	for s := range inners {
		var length uint64
		if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
			return nil, fmt.Errorf("core: read shard %d length: %w", s, err)
		}
		lr := io.LimitReader(r, int64(length))
		ix, err := Load(lr)
		if err != nil {
			return nil, fmt.Errorf("core: load shard %d: %w", s, err)
		}
		// Load's internal buffering may have stopped short of the shard
		// boundary; skip the remainder so the next shard starts aligned.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("core: skip to shard %d: %w", s+1, err)
		}
		inners[s] = ix
	}
	return newEngine(inners)
}
