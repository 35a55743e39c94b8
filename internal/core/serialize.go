package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/lsh"
	"repro/internal/metric"
	"repro/internal/minhash"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vec"
)

// Binary serialization of a PM-LSH index. The stream is little-endian:
//
//	magic "PLS8"
//	config: m u32 | pivots u32 | capacity u32 | alpha1 f64 | seed i64 |
//	        sampleSize u32 | rminShrink f64 | beta f64 |
//	        autoCompact f64 | tree flag u8 (always 0)
//	dim u32 | slots u32 | nextID u32
//	projection rows (m × dim f64)
//	distCDF length u32 + values
//	data (slots × dim f64, the store's flat buffer verbatim — dead
//	rows keep their values)
//	free list: u32 count + count × i32 slots — the dead rows, the ones
//	no live id maps to, ascending (streams of earlier releases list
//	them in the order they were deleted)
//	rowOf: nextID × i32 (id → slot, -1 = deleted)
//	quantize: kind u8 (always 0)
//	generation u32: the rows the PM-tree was begun over; the slots
//	after them are its tail
//
// The free list and the id → row indirection carry the
// mutation-lifecycle state, so an index saved mid-churn loads with the
// same live set, the same retired ids, and the same dead rows. The free
// list is redundant with rowOf — its slots are exactly the ones no id
// maps to — and Load checks that it is; it keeps the name it had while
// Insert refilled them. Nothing does any more, and a stream written
// then loads with its dead rows staying dead.
//
// The PM-tree is not stored: it is a function of the projected rows
// (paper Section 4.1). Load projects the data again and hands the first
// generation rows to the tree as its deferred generation, the rest as
// its tail, a row's id the one rowOf maps to it (-1 for a dead row): the
// tree the saved index held, bulk loaded by the first query that reads
// its structure. A loaded index answers queries identically to the
// saved one, with the same statistics, and reaches its next automatic
// compaction at the same operation.
//
// PLS7 is this layout under the β rule before PLS8: κ re-solved at every
// m, so β(c = 1.5) = 0.281 whatever m (alpha2Scale's perM rule). Load
// reads the rule off the magic, and an index loaded from a PLS7 or PLS4
// stream keeps its rule and writes PLS7 again: it answers with the β it
// was saved with, through every later checkpoint and compaction.
//
// PLS4 is this layout with every codec kind, and a serialized PM-tree
// where the generation count stands. Load reads it up to the tree, which
// it does not read: the stored rows become one fresh generation. The
// quantize block held the parameters of a reject-only screening codec,
// retired in PR 29: for i8 (2) off + scale (dim × f64 each), for f32
// (1) and i8 slack (dim × f64). Load still reads them in full — a
// truncated block is an error — and drops them.
//
// The tree flag once selected an R-tree over the projections (flag 1);
// that backend is no longer served, the byte stays so the layouts keep
// their offsets, and Load rejects any non-zero value. PLS1–PLS3, the
// layouts before churn state and the codec, are retired: nothing has
// written them since PLS4 and Load names the version in its error.

// Version 6 ("PLS6") is the metric-tagged container for non-L2
// indexes:
//
//	magic "PLS6" | metric u8
//	InnerProduct only: scale S f64 (the build-time norm bound)
//	then the complete backend stream — the full PLS8 (or PLS7) stream above
//	(internal-space rows, so dim is the augmented dimensionality
//	under InnerProduct; PLS4 in streams written before it) for the
//	vector reductions, or the MinHash "PMH1" stream (internal/minhash)
//	for Jaccard.
//
// L2 indexes write the bare stream; PLS4, PLS5, PLS7 and PLS8 streams
// load as L2. An unknown metric tag is a hard error, never a panic.
var (
	pls4Magic = [4]byte{'P', 'L', 'S', '4'}
	pls6Magic = [4]byte{'P', 'L', 'S', '6'}
	pls7Magic = [4]byte{'P', 'L', 'S', '7'}
	pls8Magic = [4]byte{'P', 'L', 'S', '8'}
)

// WriteTo serializes the index. It implements io.WriterTo. It writes
// one view — the state as of the call — and runs beside queries and
// mutations alike without holding any of them up.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if ix.metric != metric.L2 {
		return ix.writeToPLS6(w)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	if err := ix.encode(cw, ix.view.Load()); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("core: flush: %w", err)
	}
	return cw.n, nil
}

// writeToPLS6 wraps the backend stream in the metric-tagged PLS6
// envelope. L2 never takes this path.
func (ix *Index) writeToPLS6(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	hdr := append([]byte{}, pls6Magic[:]...)
	hdr = append(hdr, byte(ix.metric))
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, fmt.Errorf("core: write pls6 header: %w", err)
	}
	if ix.metric == metric.Jaccard {
		if _, err := ix.mh.WriteTo(cw); err != nil {
			return cw.n, err
		}
	} else {
		if ix.metric == metric.InnerProduct {
			if err := binary.Write(cw, binary.LittleEndian, ix.mipScale); err != nil {
				return cw.n, fmt.Errorf("core: write mip scale: %w", err)
			}
		}
		if err := ix.encode(cw, ix.view.Load()); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("core: flush: %w", err)
	}
	return cw.n, nil
}

// encode writes v as a PLS8 stream, or a PLS7 one under the β rule of
// the stream the index was loaded from.
func (ix *Index) encode(w io.Writer, v *view) error {
	magic := pls8Magic
	if ix.perMBeta {
		magic = pls7Magic
	}
	if _, err := w.Write(magic[:]); err != nil {
		return fmt.Errorf("core: write magic: %w", err)
	}
	cfg := ix.cfg
	ints := []uint32{uint32(cfg.M), uint32(cfg.NumPivots), uint32(cfg.Capacity)}
	if err := binary.Write(w, binary.LittleEndian, ints); err != nil {
		return fmt.Errorf("core: write config ints: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, cfg.Alpha1); err != nil {
		return fmt.Errorf("core: write alpha1: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, cfg.Seed); err != nil {
		return fmt.Errorf("core: write seed: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(cfg.DistSampleSize)); err != nil {
		return fmt.Errorf("core: write sample size: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, []float64{cfg.RMinShrink, cfg.Beta}); err != nil {
		return fmt.Errorf("core: write float config: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, cfg.AutoCompactFraction); err != nil {
		return fmt.Errorf("core: write auto-compact fraction: %w", err)
	}
	if _, err := w.Write([]byte{0}); err != nil {
		return fmt.Errorf("core: write tree flag: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, []uint32{uint32(ix.dim), uint32(len(v.flat) / ix.dim)}); err != nil {
		return fmt.Errorf("core: write shape: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v.rowOf))); err != nil {
		return fmt.Errorf("core: write id space: %w", err)
	}
	for i := 0; i < ix.cfg.M; i++ {
		if err := binary.Write(w, binary.LittleEndian, ix.proj.Row(i)); err != nil {
			return fmt.Errorf("core: write projection row %d: %w", i, err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v.distCDF))); err != nil {
		return fmt.Errorf("core: write cdf length: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, v.distCDF); err != nil {
		return fmt.Errorf("core: write cdf: %w", err)
	}
	// The store's flat buffer is the wire format, written in bounded
	// chunks so a save does not double the memory.
	if err := store.WriteFloat64s(w, v.flat); err != nil {
		return fmt.Errorf("core: write data: %w", err)
	}
	// A deleted id keeps its row in the view until Compact; the stream
	// says -1 for it either way, and lists the rows no live id holds.
	rowOf := make([]int32, len(v.rowOf))
	held := make([]bool, len(v.flat)/ix.dim)
	for id, row := range v.rowOf {
		rowOf[id] = -1
		if v.tree.IsLive(int32(id)) {
			rowOf[id], held[row] = row, true
		}
	}
	free := make([]int32, 0, v.dead())
	for row, h := range held {
		if !h {
			free = append(free, int32(row))
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(free))); err != nil {
		return fmt.Errorf("core: write free-list length: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, free); err != nil {
		return fmt.Errorf("core: write free list: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, rowOf); err != nil {
		return fmt.Errorf("core: write row map: %w", err)
	}
	if _, err := w.Write([]byte{0}); err != nil {
		return fmt.Errorf("core: write quantize kind: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(v.tree.Rows()-v.tree.Tail())); err != nil {
		return fmt.Errorf("core: write generation: %w", err)
	}
	return nil
}

// Load deserializes an index previously written with WriteTo.
func Load(r io.Reader) (*Index, error) {
	return load(bufio.NewReaderSize(r, 1<<20), false)
}

// load reads one stream from br. inner guards against a PLS6 envelope
// nesting another PLS6 envelope, which WriteTo never produces.
func load(br *bufio.Reader, inner bool) (*Index, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	switch magic {
	case pls4Magic, pls7Magic, pls8Magic:
	case pls6Magic:
		if inner {
			return nil, fmt.Errorf("core: nested PLS6 envelope")
		}
		return loadPLS6(br)
	case [4]byte{'P', 'L', 'S', '1'}, [4]byte{'P', 'L', 'S', '2'}, [4]byte{'P', 'L', 'S', '3'}:
		return nil, fmt.Errorf("core: snapshot format %s is retired (nothing has written it since PLS4); rebuild the index from its data", magic[:])
	default:
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	var cfg Config
	ints := make([]uint32, 3)
	if err := binary.Read(br, binary.LittleEndian, ints); err != nil {
		return nil, fmt.Errorf("core: read config ints: %w", err)
	}
	cfg.M, cfg.NumPivots, cfg.Capacity = int(ints[0]), int(ints[1]), int(ints[2])
	cfg.ExplicitZeroPivots = cfg.NumPivots == 0
	if err := binary.Read(br, binary.LittleEndian, &cfg.Alpha1); err != nil {
		return nil, fmt.Errorf("core: read alpha1: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &cfg.Seed); err != nil {
		return nil, fmt.Errorf("core: read seed: %w", err)
	}
	var sampleSize uint32
	if err := binary.Read(br, binary.LittleEndian, &sampleSize); err != nil {
		return nil, fmt.Errorf("core: read sample size: %w", err)
	}
	cfg.DistSampleSize = int(sampleSize)
	fl := make([]float64, 2)
	if err := binary.Read(br, binary.LittleEndian, fl); err != nil {
		return nil, fmt.Errorf("core: read float config: %w", err)
	}
	cfg.RMinShrink, cfg.Beta = fl[0], fl[1]
	if err := binary.Read(br, binary.LittleEndian, &cfg.AutoCompactFraction); err != nil {
		return nil, fmt.Errorf("core: read auto-compact fraction: %w", err)
	}
	if math.IsNaN(cfg.AutoCompactFraction) || cfg.AutoCompactFraction > 1 {
		return nil, fmt.Errorf("core: corrupt auto-compact fraction %v", cfg.AutoCompactFraction)
	}
	treeFlag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: read tree flag: %w", err)
	}
	switch treeFlag {
	case 0:
	case 1:
		return nil, fmt.Errorf("core: snapshot of an R-tree index (tree flag 1): that backend is no longer served; rebuild the index from its data")
	default:
		return nil, fmt.Errorf("core: corrupt tree flag %d", treeFlag)
	}

	shape := make([]uint32, 3)
	if err := binary.Read(br, binary.LittleEndian, shape); err != nil {
		return nil, fmt.Errorf("core: read shape: %w", err)
	}
	// A stream may hold zero slots (an index compacted after deleting
	// every point).
	dim, n, idSpace := int(shape[0]), int(shape[1]), int(shape[2])
	if cfg.M < 1 || dim < 1 || cfg.Alpha1 <= 0 || cfg.Alpha1 >= 1 {
		return nil, fmt.Errorf("core: corrupt header (m=%d dim=%d n=%d α1=%v)", cfg.M, dim, n, cfg.Alpha1)
	}
	// Plausibility bounds before header fields size allocations: a
	// corrupt header must produce an error, not an OOM or an overflowed
	// make. The individual bounds keep the products below overflow, the
	// product bounds cap the actual allocations (data n*dim, projection
	// m*dim, distance sample, id map). Slots were each created by one
	// Insert, so the id space can never be smaller.
	if n > 1<<30 || dim > 1<<20 || cfg.M > 1<<20 ||
		uint64(n)*uint64(dim) > 1<<32 || uint64(cfg.M)*uint64(dim) > 1<<28 ||
		cfg.DistSampleSize > 1<<28 || idSpace < n || idSpace > 1<<30 {
		return nil, fmt.Errorf("core: implausible header (m=%d dim=%d n=%d ids=%d sample=%d)",
			cfg.M, dim, n, idSpace, cfg.DistSampleSize)
	}

	rows := make([][]float64, cfg.M)
	for i := range rows {
		row := make([]float64, dim)
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return nil, fmt.Errorf("core: read projection row %d: %w", i, err)
		}
		if !finite(row) { // every projected query would be NaN
			return nil, fmt.Errorf("core: projection row %d is not finite", i)
		}
		rows[i] = row
	}
	proj, err := lsh.ProjectionFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("core: restore projection: %w", err)
	}

	var cdfLen uint32
	if err := binary.Read(br, binary.LittleEndian, &cdfLen); err != nil {
		return nil, fmt.Errorf("core: read cdf length: %w", err)
	}
	if int(cdfLen) > 10*cfg.DistSampleSize+1 {
		return nil, fmt.Errorf("core: implausible cdf length %d", cdfLen)
	}
	cdf, err := store.ReadFloat64s(br, int(cdfLen))
	if err != nil {
		return nil, fmt.Errorf("core: read cdf: %w", err)
	}

	flat, err := store.ReadFloat64s(br, n*dim)
	if err != nil {
		return nil, fmt.Errorf("core: read data: %w", err)
	}
	data, err := store.FromFlat(flat, dim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Churn state: the free list (the dead rows) and the id → row map.
	rowOf := make([]int32, idSpace)
	var freeLen uint32
	if err := binary.Read(br, binary.LittleEndian, &freeLen); err != nil {
		return nil, fmt.Errorf("core: read free-list length: %w", err)
	}
	if int(freeLen) > n {
		return nil, fmt.Errorf("core: free list of %d slots exceeds %d rows", freeLen, n)
	}
	free := make([]int32, freeLen)
	if err := binary.Read(br, binary.LittleEndian, free); err != nil {
		return nil, fmt.Errorf("core: read free list: %w", err)
	}
	// marked[row]: the row is dead (listed free) or mapped by a live id —
	// one or the other, exactly once.
	marked := make([]bool, n)
	for _, row := range free {
		if row < 0 || int(row) >= n || marked[row] {
			return nil, fmt.Errorf("core: free list names row %d twice or outside [0,%d)", row, n)
		}
		marked[row] = true
	}
	if err := binary.Read(br, binary.LittleEndian, rowOf); err != nil {
		return nil, fmt.Errorf("core: read row map: %w", err)
	}
	// The map must be a bijection between live ids and live rows: every
	// mapped row in range, not free, and mapped only once; the mapped
	// count then pins down full coverage.
	mapped := 0
	for id, row := range rowOf {
		if row < 0 {
			continue
		}
		if int(row) >= n {
			return nil, fmt.Errorf("core: id %d maps to invalid row %d", id, row)
		}
		if marked[row] {
			return nil, fmt.Errorf("core: row %d mapped by more than one id, or free", row)
		}
		marked[row] = true
		mapped++
	}
	if live := n - len(free); mapped != live {
		return nil, fmt.Errorf("core: row map covers %d rows, store has %d live", mapped, live)
	}

	// The retired screening codec (see the layout above): read whole and
	// dropped.
	qb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: read quantize kind: %w", err)
	}
	if qb > 2 || (qb != 0 && magic != pls4Magic) {
		return nil, fmt.Errorf("core: unknown quantize kind %d", qb)
	}
	// dim-long arrays: none, slack (f32), offsets + scales + slack (i8).
	for range [...]int{0, 1, 3}[qb] {
		if _, err := store.ReadFloat64s(br, dim); err != nil {
			return nil, fmt.Errorf("core: read codec parameters: %w", err)
		}
	}

	gen := n // PLS4: the tree stream that follows is not read
	if magic != pls4Magic {
		var g uint32
		if err := binary.Read(br, binary.LittleEndian, &g); err != nil {
			return nil, fmt.Errorf("core: read generation: %w", err)
		}
		if int(g) > n {
			return nil, fmt.Errorf("core: generation of %d rows exceeds %d", g, n)
		}
		gen = int(g)
	}
	// Every row, dead ones included, goes into the tree's projection: a
	// NaN there is a NaN distance on every query that reads it.
	for row := 0; row < n; row++ {
		if !finiteNorm(data.Row(row)) {
			return nil, fmt.Errorf("core: row %d has a NaN or infinite component, or a norm beyond float64", row)
		}
	}
	// A row holds the id rowOf maps to it; a dead one, whose id the stream
	// does not keep, holds none.
	ids := make([]int32, n)
	for row := range ids {
		ids[row] = -1
	}
	for id, row := range rowOf {
		if row >= 0 {
			ids[row] = int32(id)
		}
	}
	tree, err := projectTree(proj, data, ids, gen, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	chi := stats.ChiSquared{K: cfg.M}
	q, err := chi.UpperQuantile(cfg.Alpha1)
	if err != nil {
		return nil, fmt.Errorf("core: deriving t: %w", err)
	}
	perM := magic != pls8Magic
	ix := &Index{
		cfg:      cfg,
		data:     data,
		proj:     proj,
		tree:     tree,
		dim:      dim,
		ndim:     dim, // loadPLS6 adjusts for reduced metrics
		t:        math.Sqrt(q),
		chi:      chi,
		a2scale:  alpha2Scale(cfg.M, perM),
		perMBeta: perM,
	}
	ix.publish(rowOf, cdf, 0)
	return ix, nil
}

// loadPLS6 reads the body of a metric-tagged stream; the "PLS6" magic
// has already been consumed. An out-of-range metric byte is a hard
// error so future format revisions fail loudly on old binaries.
func loadPLS6(br *bufio.Reader) (*Index, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: read metric tag: %w", err)
	}
	m := metric.Kind(tag)
	if !m.Valid() {
		return nil, fmt.Errorf("core: unknown metric tag %d", tag)
	}
	if m == metric.L2 {
		// L2 is always written as a bare stream or a PLS5 container; a
		// PLS6+L2 combination only arises from corruption or a foreign
		// writer.
		return nil, fmt.Errorf("core: l2 index in PLS6 envelope")
	}
	if m == metric.Jaccard {
		mh, err := minhash.Read(br)
		if err != nil {
			return nil, err
		}
		cfg := Config{
			Metric:           metric.Jaccard,
			Seed:             mh.Seed(),
			MinHashBands:     mh.Bands(),
			MinHashRows:      mh.Rows(),
			MinHashThreshold: mh.Threshold(),
		}
		return &Index{cfg: cfg, metric: metric.Jaccard, mh: mh}, nil
	}
	scale := 0.0
	if m == metric.InnerProduct {
		if err := binary.Read(br, binary.LittleEndian, &scale); err != nil {
			return nil, fmt.Errorf("core: read mip scale: %w", err)
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
			return nil, fmt.Errorf("core: corrupt mip scale %v", scale)
		}
	}
	ix, err := load(br, true)
	if err != nil {
		return nil, err
	}
	ix.metric = m
	ix.cfg.Metric = m
	if m == metric.InnerProduct {
		if ix.dim < 2 {
			return nil, fmt.Errorf("core: inner-product index needs augmented dim >= 2, got %d", ix.dim)
		}
		ix.mipScale = scale
		ix.ndim = ix.dim - 1
	}
	// Reduced rows are unit vectors by construction, dead ones included;
	// a stream with a swapped metric byte or a corrupt row fails at load,
	// not at query.
	for i := 0; i < ix.data.Len(); i++ {
		if s := vec.Dot(ix.data.Row(i), ix.data.Row(i)); math.Abs(s-1) > 1e-6 {
			return nil, fmt.Errorf("core: row %d is not unit-norm (|x|^2=%v) for %s metric", i, s, m)
		}
	}
	return ix, nil
}

func finite(fs []float64) bool {
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
