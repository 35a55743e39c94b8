package pmtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization of the tree structure. The format is
// little-endian and versioned:
//
//	magic "PMT3" | dim u32 | capacity u32 | count u32 | pivots u32
//	pivot points (pivots × dim f64)
//	recursive node encoding:
//	  leaf flag u8 | entry count u32
//	  leaf entry:    id i32 | point dim×f64 | parentDist f64 | pivotDist s×f64
//	  routing entry: center dim×f64 | radius f64 | parentDist f64 |
//	                 hr s×{min,max} f64 | child node
//	tail: row count u32, then per row: id i32 | point dim×f64
//
// count is the number of live points; an id of -1 marks a leaf entry or
// tail row whose point Delete has removed (the stream does not say which
// id it held). Loading a stream reproduces the
// exact tree — the same nodes, the same rows in the same order with the
// same dead marks, the same tail, counters at zero — so a saved index
// answers queries identically and its tail stands exactly as far from
// the next rebuild as the saved one's did.
//
// Versions 1 and 2 predate the tail and the dead marks: they end with
// the root node and every entry is live (version 2 admitted leaf nodes
// with zero entries, which deletions then left behind; the byte layout
// is otherwise version 1's). Read accepts both — any such tree, however
// it was grown, is a valid frozen tree with an empty tail.

var (
	pmtMagic   = [4]byte{'P', 'M', 'T', '3'}
	pmtMagicV2 = [4]byte{'P', 'M', 'T', '2'}
	pmtMagicV1 = [4]byte{'P', 'M', 'T', '1'}
)

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if err := t.encode(cw); err != nil {
		return cw.n, err
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		return cw.n, fmt.Errorf("pmtree: flush: %w", err)
	}
	return cw.n, nil
}

func (t *Tree) encode(w io.Writer) error {
	if _, err := w.Write(pmtMagic[:]); err != nil {
		return fmt.Errorf("pmtree: write magic: %w", err)
	}
	hdr := []uint32{uint32(t.dim), uint32(t.capacity), uint32(t.count), uint32(len(t.pivots))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("pmtree: write header: %w", err)
	}
	for _, p := range t.pivots {
		if err := writeFloats(w, p); err != nil {
			return err
		}
	}
	if err := t.encodeNode(w, t.root); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(t.Tail())); err != nil {
		return fmt.Errorf("pmtree: write tail length: %w", err)
	}
	for row := t.frozen; row < t.Rows(); row++ {
		if err := t.encodeRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

// encodeRow writes one row's id — -1 for a dead row — and point: a leaf
// entry's head, or a tail row.
func (t *Tree) encodeRow(w io.Writer, row int) error {
	id := int32(-1)
	if t.rowLive(row) {
		id = t.rowID[row]
	}
	if err := binary.Write(w, binary.LittleEndian, id); err != nil {
		return fmt.Errorf("pmtree: write id: %w", err)
	}
	return writeFloats(w, t.row(row))
}

func (t *Tree) encodeNode(w io.Writer, n *node) error {
	flag := byte(0)
	if n.leaf {
		flag = 1
	}
	if _, err := w.Write([]byte{flag}); err != nil {
		return fmt.Errorf("pmtree: write node flag: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(n.size())); err != nil {
		return fmt.Errorf("pmtree: write entry count: %w", err)
	}
	if n.leaf {
		for i := range n.parentDist {
			if err := t.encodeRow(w, int(n.first)+i); err != nil {
				return err
			}
			if err := writeFloats(w, n.parentDist[i:i+1]); err != nil {
				return err
			}
			if err := writeFloats(w, n.pivotDists(i, len(t.pivots))); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range n.routing {
		e := &n.routing[i]
		if err := writeFloats(w, e.center); err != nil {
			return err
		}
		if err := writeFloats(w, []float64{e.radius, e.parentDist}); err != nil {
			return err
		}
		for _, iv := range e.hr {
			if err := writeFloats(w, []float64{iv.Min, iv.Max}); err != nil {
				return err
			}
		}
		if err := t.encodeNode(w, e.child); err != nil {
			return err
		}
	}
	return nil
}

// Read deserializes a tree previously written with WriteTo. Every id in
// the stream must be below idLimit: the ids size the tree's delete
// epochs, and an untrusted stream must not size an allocation its
// caller has not bounded.
func Read(r io.Reader, idLimit int) (*Tree, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("pmtree: read magic: %w", err)
	}
	if magic != pmtMagic && magic != pmtMagicV2 && magic != pmtMagicV1 {
		return nil, fmt.Errorf("pmtree: bad magic %q", magic)
	}
	// Only version 3 has dead marks and a tail section.
	minID := int32(0)
	if magic == pmtMagic {
		minID = -1
	}
	hdr := make([]uint32, 4)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, fmt.Errorf("pmtree: read header: %w", err)
	}
	dim, capacity, count, numPivots := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	if dim < 1 || capacity < 4 || numPivots < 0 || count < 0 ||
		// Plausibility bounds: header fields size allocations (pivot
		// slices, per-entry pivotDist, per-node entry arrays), so a
		// corrupt header must error out before any of them.
		dim > 1<<20 || capacity > 1<<20 || count > 1<<30 || numPivots > 1<<12 {
		return nil, fmt.Errorf("pmtree: corrupt header dim=%d cap=%d count=%d pivots=%d",
			dim, capacity, count, numPivots)
	}
	// The point store grows as nodes decode; the header count is
	// untrusted, so it must not size an up-front allocation (a corrupt
	// stream could demand petabytes or overflow count*dim). It is
	// verified against the decoded leaves below.
	t := &Tree{dim: dim, capacity: capacity, count: count, stats: &treeStats{}}
	t.pivots = make([][]float64, numPivots)
	for i := range t.pivots {
		p, err := readFloats(br, dim)
		if err != nil {
			return nil, err
		}
		t.pivots[i] = p
	}
	root, err := t.decodeNode(br, numPivots, minID)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.frozen = t.Rows()
	if magic == pmtMagic {
		// The tail length is untrusted like the header count: rows are
		// appended as their bytes arrive.
		var tail uint32
		if err := binary.Read(br, binary.LittleEndian, &tail); err != nil {
			return nil, fmt.Errorf("pmtree: read tail length: %w", err)
		}
		for i := uint32(0); i < tail; i++ {
			if _, err := t.decodeRow(br, minID); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range t.rowID {
		if int(id) >= idLimit {
			return nil, fmt.Errorf("pmtree: id %d beyond the id space of %d", id, idLimit)
		}
	}
	// Verify the advertised count against the rows.
	t.resetLiveness()
	got := 0
	t.WalkIDs(func(int32) { got++ })
	if got != count {
		return nil, fmt.Errorf("pmtree: header count %d but the stream holds %d live points", count, got)
	}
	t.deriveScanRadius()
	return t, nil
}

// decodeRow reads one id and point — a leaf entry's head or a tail row
// — and appends them to the store.
func (t *Tree) decodeRow(r io.Reader, minID int32) (int32, error) {
	var id int32
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return 0, fmt.Errorf("pmtree: read id: %w", err)
	}
	p, err := readFloats(r, t.dim)
	if err != nil {
		return 0, err
	}
	if id < minID || !validFinite(p) {
		return 0, fmt.Errorf("pmtree: corrupt entry %d", id)
	}
	t.flat = append(t.flat, p...)
	t.rowID = append(t.rowID, id)
	return id, nil
}

func (t *Tree) decodeNode(r io.Reader, numPivots int, minID int32) (*node, error) {
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return nil, fmt.Errorf("pmtree: read node flag: %w", err)
	}
	if flag[0] > 1 {
		return nil, fmt.Errorf("pmtree: corrupt node flag %d", flag[0])
	}
	var cnt uint32
	if err := binary.Read(r, binary.LittleEndian, &cnt); err != nil {
		return nil, fmt.Errorf("pmtree: read entry count: %w", err)
	}
	// Leaves may be empty (a version 2 stream, or the root of a tree that
	// is all tail); inner nodes never are.
	if int(cnt) > t.capacity || (cnt == 0 && flag[0] != 1) {
		return nil, fmt.Errorf("pmtree: corrupt entry count %d (capacity %d)", cnt, t.capacity)
	}
	n := &node{leaf: flag[0] == 1}
	if n.leaf {
		// Rows are appended in traversal order, so every decoded leaf is one
		// run of the store. Exact-size arrays for any real leaf; the cap
		// keeps a corrupt count × pivots product from sizing an allocation
		// no bytes back.
		n.first = int32(t.Rows())
		hint := min(int(cnt), 1<<12)
		n.parentDist = make([]float64, 0, hint)
		n.pivotDist = make([]float64, 0, min(hint*numPivots, 1<<16))
		for i := 0; i < int(cnt); i++ {
			id, err := t.decodeRow(r, minID)
			if err != nil {
				return nil, err
			}
			pd, err := readFloats(r, 1+numPivots)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(pd[0]) {
				return nil, fmt.Errorf("pmtree: corrupt leaf entry %d", id)
			}
			n.parentDist = append(n.parentDist, pd[0])
			n.pivotDist = append(n.pivotDist, pd[1:]...)
		}
		return n, nil
	}
	n.routing = make([]routingEntry, cnt)
	for i := range n.routing {
		e := &n.routing[i]
		c, err := readFloats(r, t.dim)
		if err != nil {
			return nil, err
		}
		e.center = c
		rp, err := readFloats(r, 2)
		if err != nil {
			return nil, err
		}
		e.radius, e.parentDist = rp[0], rp[1]
		e.hr = make([]Interval, numPivots)
		for k := range e.hr {
			mm, err := readFloats(r, 2)
			if err != nil {
				return nil, err
			}
			e.hr[k] = Interval{Min: mm[0], Max: mm[1]}
		}
		child, err := t.decodeNode(r, numPivots, minID)
		if err != nil {
			return nil, err
		}
		e.child = child
	}
	return n, nil
}

func writeFloats(w io.Writer, fs []float64) error {
	if err := binary.Write(w, binary.LittleEndian, fs); err != nil {
		return fmt.Errorf("pmtree: write floats: %w", err)
	}
	return nil
}

func readFloats(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, n)
	if err := binary.Read(r, binary.LittleEndian, out); err != nil {
		return nil, fmt.Errorf("pmtree: read floats: %w", err)
	}
	return out, nil
}

func validFinite(fs []float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
