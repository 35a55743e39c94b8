// Package wal implements the write-ahead log behind the engine's
// crash-safe durability: an append-only, CRC32C-framed, length-prefixed
// record log for the three mutations (Insert, Delete, Compact), with
// group-commit fsync, torn-tail detection on replay, and log rotation
// keyed to checkpoint sequence numbers. Record kind 4 changed the
// retired screening codec: written before PR 29, replayed as a no-op.
//
// # State directory layout
//
// One directory holds the complete durable state:
//
//	checkpoint-<seq>.pmlsh   full engine snapshot (core serialization)
//	wal-<seq>.log            mutations applied after checkpoint <seq'≤seq-1>
//
// Sequence numbers are one monotone series shared by checkpoints and
// segments. The invariant: checkpoint C contains every mutation logged
// in segments with seq ≤ C, and the active segment's seq is always
// greater than the newest checkpoint's. Opening the state is therefore
// "load the newest valid checkpoint C, replay segments C+1, C+2, …
// in order, rotate to a fresh segment".
//
// # Segment format
//
// A segment starts with a 13-byte header —
//
//	magic "PWAL" | version u8 (=1) | seq u64
//
// — followed by records, each framed as
//
//	length u32 | crc u32 | payload (length bytes)
//
// where crc is CRC32C (Castagnoli) over the length field's four bytes
// plus the payload, and the payload is one encoded Op (kind byte plus
// kind-specific body; see Op). All integers are little-endian.
//
// # Torn tails vs corruption
//
// A crash can tear the *end* of the log: the final record may be
// missing bytes (a short write) or fail its CRC (a power cut between
// the write and its sync). Replay detects both, truncates the segment
// back to the last whole record, and recovers — those bytes were never
// acknowledged as durable. Corruption *before* the tail — a record
// that fails mid-segment, or in any segment other than the newest —
// cannot be a torn write and is a hard error: acknowledged mutations
// would be silently dropped if replay skipped it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// OpKind discriminates the logged mutation types.
type OpKind uint8

const (
	// OpInsert logs one point insertion. The record carries the global
	// id the engine assigned, so replay reproduces the exact id
	// sequence (and fails loudly if it would not).
	OpInsert OpKind = 1
	// OpDelete logs one deletion by global id.
	OpDelete OpKind = 2
	// OpCompact logs an explicit Compact. (Auto-compactions triggered
	// by Delete are deterministic consequences of the logged Delete and
	// are not logged separately.)
	OpCompact OpKind = 3
	// OpLegacyQuantize changed the screening codec retired in PR 29:
	// written before PR 29, replayed as a no-op. Quant holds its codec
	// byte, so the record re-encodes as it was read.
	OpLegacyQuantize OpKind = 4
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpCompact:
		return "compact"
	case OpLegacyQuantize:
		return "set-quantize"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one logged mutation.
type Op struct {
	Kind OpKind
	// ID is the global id: the id Insert assigned, or the id Delete
	// removed. Unused for Compact and OpLegacyQuantize.
	ID int32
	// Vec is the inserted point (OpInsert only).
	Vec []float64
	// Quant is the codec byte (OpLegacyQuantize only).
	Quant uint8
}

// MaxRecordLen bounds a record payload: kind + id + dim + the largest
// vector the core loader itself accepts (dim ≤ 2^20 float64s = 8 MiB).
// Anything larger in a length field is corruption, not data.
const MaxRecordLen = 16 << 20

// frameHeaderLen is the per-record framing overhead: u32 length +
// u32 crc.
const frameHeaderLen = 8

// segmentHeaderLen is the segment file header: "PWAL" + version byte +
// u64 sequence number.
const segmentHeaderLen = 13

var segmentMagic = [4]byte{'P', 'W', 'A', 'L'}

const segmentVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks unrecoverable log damage: a record that fails its
// CRC (or is otherwise malformed) with more log after it, a bad
// segment header, or a gap in the segment sequence. Torn tails are NOT
// ErrCorrupt — they truncate and recover.
var ErrCorrupt = errors.New("wal: corrupt log")

// encodeOp appends op's payload encoding (kind byte + body) to buf and
// returns the extended slice.
func encodeOp(buf []byte, op Op) ([]byte, error) {
	buf = append(buf, byte(op.Kind))
	switch op.Kind {
	case OpInsert:
		if len(op.Vec) == 0 {
			return nil, fmt.Errorf("wal: insert op with empty vector")
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Vec)))
		for _, v := range op.Vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case OpDelete:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.ID))
	case OpCompact:
	case OpLegacyQuantize:
		buf = append(buf, op.Quant)
	default:
		return nil, fmt.Errorf("wal: unknown op kind %d", op.Kind)
	}
	return buf, nil
}

// decodeOp parses one payload produced by encodeOp. Trailing bytes
// after the op body are corruption (the frame length is part of what
// the CRC attests, so a mismatch here means the record was written by
// something else).
func decodeOp(payload []byte) (Op, error) {
	if len(payload) == 0 {
		return Op{}, fmt.Errorf("%w: empty record payload", ErrCorrupt)
	}
	op := Op{Kind: OpKind(payload[0])}
	body := payload[1:]
	switch op.Kind {
	case OpInsert:
		if len(body) < 8 {
			return Op{}, fmt.Errorf("%w: insert record body of %d bytes", ErrCorrupt, len(body))
		}
		op.ID = int32(binary.LittleEndian.Uint32(body))
		dim := int(binary.LittleEndian.Uint32(body[4:]))
		if dim < 1 || len(body) != 8+8*dim {
			return Op{}, fmt.Errorf("%w: insert record dim %d vs body %d bytes", ErrCorrupt, dim, len(body))
		}
		op.Vec = make([]float64, dim)
		for i := range op.Vec {
			op.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8+8*i:]))
		}
	case OpDelete:
		if len(body) != 4 {
			return Op{}, fmt.Errorf("%w: delete record body of %d bytes", ErrCorrupt, len(body))
		}
		op.ID = int32(binary.LittleEndian.Uint32(body))
	case OpCompact:
		if len(body) != 0 {
			return Op{}, fmt.Errorf("%w: compact record body of %d bytes", ErrCorrupt, len(body))
		}
	case OpLegacyQuantize:
		if len(body) != 1 {
			return Op{}, fmt.Errorf("%w: set-quantize record body of %d bytes", ErrCorrupt, len(body))
		}
		op.Quant = body[0]
	default:
		return Op{}, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, payload[0])
	}
	return op, nil
}

// appendFrame appends the full wire frame (length, crc, payload) for
// op to buf.
func appendFrame(buf []byte, op Op) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	buf, err := encodeOp(buf, op)
	if err != nil {
		return nil, err
	}
	payloadLen := len(buf) - start - frameHeaderLen
	binary.LittleEndian.PutUint32(buf[start:], uint32(payloadLen))
	crc := crc32.Update(0, castagnoli, buf[start:start+4])
	crc = crc32.Update(crc, castagnoli, buf[start+frameHeaderLen:])
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf, nil
}

// segmentHeader renders the 13-byte segment file header.
func segmentHeader(seq uint64) []byte {
	buf := make([]byte, 0, segmentHeaderLen)
	buf = append(buf, segmentMagic[:]...)
	buf = append(buf, segmentVersion)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// parseSegmentHeader validates a segment header and returns its
// sequence number.
func parseSegmentHeader(hdr []byte) (uint64, error) {
	if len(hdr) != segmentHeaderLen {
		return 0, fmt.Errorf("%w: segment header of %d bytes", ErrCorrupt, len(hdr))
	}
	if [4]byte(hdr[:4]) != segmentMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[4] != segmentVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, hdr[4])
	}
	return binary.LittleEndian.Uint64(hdr[5:]), nil
}

// SegmentName returns the file name of the log segment with the given
// sequence number.
func SegmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// CheckpointName returns the file name of the checkpoint with the
// given sequence number.
func CheckpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%016d.pmlsh", seq) }

// parseSeqName extracts the sequence number from a segment or
// checkpoint file name matching the given prefix/suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// ParseSegmentName extracts the sequence number from a segment file
// name ("wal-<seq>.log").
func ParseSegmentName(name string) (uint64, bool) { return parseSeqName(name, "wal-", ".log") }

// ParseCheckpointName extracts the sequence number from a checkpoint
// file name ("checkpoint-<seq>.pmlsh").
func ParseCheckpointName(name string) (uint64, bool) {
	return parseSeqName(name, "checkpoint-", ".pmlsh")
}
