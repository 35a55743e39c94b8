package wal

import (
	"bytes"
	"testing"
)

// fuzzSegmentBytes renders a well-formed segment for the seed corpus.
func fuzzSegmentBytes(tb testing.TB, seq uint64, ops []Op) []byte {
	tb.Helper()
	buf := segmentHeader(seq)
	for _, op := range ops {
		var err error
		buf, err = appendFrame(buf, op)
		if err != nil {
			tb.Fatalf("appendFrame: %v", err)
		}
	}
	return buf
}

// FuzzWALReplay feeds arbitrary bytes to segment replay as the final
// (tail-repairable) segment. Whatever the input, replay must
//
//   - never panic,
//   - never invent operations: every op it accepts must re-encode to
//     an exact byte-prefix of the input (modulo the fixed header), and
//   - be idempotent after repair: replaying the truncated file again
//     yields the same ops and no further tearing.
func FuzzWALReplay(f *testing.F) {
	ops := []Op{
		{Kind: OpInsert, ID: 0, Vec: []float64{1.5, -2, 0.25}},
		{Kind: OpInsert, ID: 1, Vec: []float64{3, 4, 5}},
		// A Jaccard engine logs inserts as integer-valued token floats
		// (the set {3, 7, 2^20}); framing-wise they are ordinary vecs,
		// but the corpus should mutate around this shape too.
		{Kind: OpInsert, ID: 2, Vec: []float64{3, 7, 1 << 20}},
		{Kind: OpDelete, ID: 0},
		{Kind: OpLegacyQuantize, Quant: 1},
		{Kind: OpCompact},
	}
	clean := fuzzSegmentBytes(f, 1, ops)
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn tail
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(segmentHeader(1))          // empty segment
	f.Add([]byte("PW"))              // torn creation husk
	f.Add([]byte("XXXXXYYYYYZZZZZ")) // garbage header
	huge := append(segmentHeader(1), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	f.Add(huge) // implausible length field

	f.Fuzz(func(t *testing.T, data []byte) {
		inj := NewInjector()
		w, err := inj.Create(SegmentName(1))
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Sync()
		w.Close()
		inj.SyncDir()

		var got []Op
		stats, err := ReplaySegments(inj, []uint64{1}, func(op Op) error {
			got = append(got, op)
			return nil
		})
		if err != nil {
			return // recover-or-error: a hard error is a valid outcome
		}

		// No invented ops: the accepted ops re-encode to a prefix.
		re := fuzzSegmentBytes(t, 1, got)
		if len(data) >= segmentHeaderLen && len(re) <= len(data) {
			if !bytes.Equal(re[segmentHeaderLen:], data[segmentHeaderLen:len(re)]) {
				t.Fatalf("accepted ops do not re-encode to an input prefix (%d ops, %d bytes)", len(got), len(re))
			}
		} else if len(got) > 0 {
			t.Fatalf("%d ops accepted from a %d-byte input", len(got), len(data))
		}

		// Idempotence: the repaired file replays identically, clean.
		var again []Op
		stats2, err := ReplaySegments(inj, []uint64{1}, func(op Op) error {
			again = append(again, op)
			return nil
		})
		if err != nil {
			t.Fatalf("replay after repair failed: %v (first pass %+v)", err, stats)
		}
		if stats2.TornBytes != 0 {
			t.Fatalf("second replay still tearing: %+v", stats2)
		}
		if len(again) != len(got) {
			t.Fatalf("second replay returned %d ops, first %d", len(again), len(got))
		}
	})
}
