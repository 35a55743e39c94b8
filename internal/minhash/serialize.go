package minhash

// Serialization. The stream is:
//
//	magic "PMH1"                         4 bytes
//	bands u32 · rows u32 · seed i64 · threshold f64
//	compactions u32 · dead u32 · idSpace u32 (ids ever assigned)
//	per id: setLen u32, then setLen token u64s
//	        (setLen 0 marks a deleted id — live sets are non-empty)
//
// Signatures and band buckets are derived state and are rebuilt on
// load from the sets and the seed, bit-identically. compactions is the
// writer's count since it was built or loaded; Read starts at 0. All integers are
// little-endian. Unknown magic, impossible counts and short streams
// are hard errors, never panics.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

const pmhMagic = "PMH1"

// WriteTo serializes the index.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<20)}
	write := func(v any) {
		if cw.err == nil {
			cw.err = binary.Write(cw, binary.LittleEndian, v)
		}
	}
	if _, err := cw.Write([]byte(pmhMagic)); err != nil {
		return cw.n, err
	}
	write(uint32(x.cfg.Bands))
	write(uint32(x.cfg.Rows))
	write(x.cfg.Seed)
	write(x.cfg.Threshold)
	write(uint32(x.compactions))
	write(uint32(x.dead))
	write(uint32(len(x.sets)))
	for _, s := range x.sets {
		write(uint32(len(s)))
		write(s)
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// Read loads an index serialized by WriteTo. It reads exactly the
// stream's bytes from r and nothing past them, so whatever follows the
// stream in r is left for the caller; hand it a buffered reader.
func Read(r io.Reader) (*Index, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("minhash: reading magic: %w", err)
	}
	if string(magic[:]) != pmhMagic {
		return nil, fmt.Errorf("minhash: bad magic %q", magic[:])
	}
	var bands, rows, compactions, dead, n uint32
	var seed int64
	var threshold float64
	for _, v := range []any{&bands, &rows, &seed, &threshold, &compactions, &dead, &n} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("minhash: reading header: %w", err)
		}
	}
	if bands < 1 || rows < 1 || bands*rows > 1<<16 {
		return nil, fmt.Errorf("minhash: implausible band layout %d x %d", bands, rows)
	}
	if !(threshold >= 0 && threshold <= 1) { // also rejects NaN
		return nil, fmt.Errorf("minhash: implausible threshold %v", threshold)
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("minhash: implausible id space %d", n)
	}
	x, err := New(Config{Bands: int(bands), Rows: int(rows), Seed: seed, Threshold: threshold})
	if err != nil {
		return nil, err
	}
	x.sets = make([][]uint64, 0, min(int(n), 1<<20))
	x.sigs = make([][]uint64, 0, min(int(n), 1<<20))
	tombstones := uint32(0)
	for id := uint32(0); id < n; id++ {
		var setLen uint32
		if err := binary.Read(r, binary.LittleEndian, &setLen); err != nil {
			return nil, fmt.Errorf("minhash: reading set %d: %w", id, err)
		}
		if setLen == 0 {
			x.sets = append(x.sets, nil)
			x.sigs = append(x.sigs, nil)
			tombstones++
			continue
		}
		if setLen > 1<<28 {
			return nil, fmt.Errorf("minhash: implausible set size %d", setLen)
		}
		s, err := readTokens(r, int(setLen))
		if err != nil {
			return nil, fmt.Errorf("minhash: reading set %d: %w", id, err)
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return nil, fmt.Errorf("minhash: set %d is not sorted and deduplicated", id)
			}
		}
		sig := x.signature(s, nil)
		x.sets = append(x.sets, s)
		x.sigs = append(x.sigs, sig)
		for b := range x.buckets {
			key := x.bandKey(sig, b)
			x.buckets[b][key] = append(x.buckets[b][key], int32(id))
		}
		x.live++
	}
	// dead counts deletes since the last Compact, so it can be any
	// value up to the total tombstone count (Compact resets the
	// counter without resurrecting ids).
	if dead > tombstones {
		return nil, fmt.Errorf("minhash: dead count %d exceeds %d tombstones", dead, tombstones)
	}
	x.dead = int(dead)
	return x, nil
}

// tokenChunk is how many tokens readTokens reads at a time.
const tokenChunk = 8192

// readTokens reads n little-endian u64 tokens in chunks: the set grows
// only as tokens arrive, so a corrupt length fails with a read error once
// the stream ends instead of allocating what it claims.
func readTokens(r io.Reader, n int) ([]uint64, error) {
	var s []uint64
	for len(s) < n {
		m := min(n-len(s), tokenChunk)
		s = slices.Grow(s, m)
		if err := binary.Read(r, binary.LittleEndian, s[len(s):len(s)+m]); err != nil {
			return nil, err
		}
		s = s[:len(s)+m]
	}
	return s, nil
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
