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

// Binary serialization of PM-LSH indexes and engines. Every snapshot is
// one little-endian PLS9 stream: the magic "PLS9", a header, then each
// shard's body in turn with no length prefix (each body reader consumes
// exactly its own bytes):
//
//	header: metric u8 | shards u32 | a2scale f64 | mipScale f64
//
// a2scale is the β rule the shards answer with, α2(c) =
// CDF_χ²(m)(a2scale/c²) (see alpha2Scale), 0 under Jaccard; mipScale the
// inner-product reduction's build-time norm bound S, 0 under every other
// metric. A Jaccard shard's body is its MinHash "PMH1" stream
// (internal/minhash); a vector shard's, over internal-space rows (under
// inner product dim is the augmented dimensionality), is:
//
//	config and shape (bodyHead): m u32 | pivots u32 | capacity u32 |
//	        alpha1 f64 | seed i64 | sampleSize u32 | rminShrink f64 |
//	        beta f64 | autoCompact f64 | tree flag u8 (always 0) |
//	        dim u32 | slots u32 | nextID u32
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
// Older streams are read, never written; each magic reads as the PLS9
// header it stands for:
//
//   - "PLS8" and one body: an L2 shard under the fixed-κ β rule.
//   - "PLS7" and one body: the same under the rule before it, κ re-solved
//     at every m (alpha2Scale's perM rule: β(1.5) = 0.281 at every m),
//     which the loaded index keeps and its snapshots' headers carry.
//   - "PLS4": PLS7 with every codec kind, and a serialized PM-tree in
//     place of the generation count, not read: the rows become one fresh
//     generation. The quantize block (a retired screening codec's
//     parameters: i8 (2) off + scale + slack, f32 (1) slack, dim × f64
//     each) is read in full — a truncated one is an error — and dropped.
//   - "PLS6" | metric u8 | mipScale f64 (inner product only), then a
//     whole PLS4, PLS7 or PLS8 stream, or PMH1 under Jaccard: one shard
//     of its metric, never L2.
//   - "PLS5" | shards u32 (2…MaxShards), then per shard a u64 length and
//     a whole bare or PLS6 stream: a list of either. A PLS5 or PLS9
//     stream nested in one is refused.
//
// The tree flag once selected an R-tree over the projections (flag 1);
// that backend is no longer served, the byte stays so the layouts keep
// their offsets, and Load rejects any non-zero value. PLS1–PLS3, the
// layouts before churn state and the codec, are retired: nothing has
// written them since PLS4 and Load names the version in its error. An
// unknown metric tag is a hard error, never a panic.
var (
	pls4Magic = [4]byte{'P', 'L', 'S', '4'}
	pls5Magic = [4]byte{'P', 'L', 'S', '5'}
	pls6Magic = [4]byte{'P', 'L', 'S', '6'}
	pls7Magic = [4]byte{'P', 'L', 'S', '7'}
	pls8Magic = [4]byte{'P', 'L', 'S', '8'}
	pls9Magic = [4]byte{'P', 'L', 'S', '9'}
)

// header is what a PLS9 stream states after its magic; like bodyHead's,
// its fields are exported for encoding/binary.
type header struct {
	Metric            metric.Kind
	Shards            uint32
	A2scale, MIPScale float64
}

// bodyHead is a vector body's fixed-size start: its config and shape.
type bodyHead struct {
	M, Pivots, Capacity           uint32
	Alpha1                        float64
	Seed                          int64
	SampleSize                    uint32
	RMinShrink, Beta, AutoCompact float64
	TreeFlag                      uint8 // always 0
	Dim, Slots, IDs               uint32
}

// WriteTo serializes the index as a one-shard PLS9 stream. It
// implements io.WriterTo. It writes one view — the state as of the call
// — and runs beside queries and mutations alike without holding any of
// them up.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return writeStream(w, []shard{ix}) }

// writeStream writes shards as one PLS9 stream: the header, then each
// shard's body straight through one buffer. The shards share their
// metric, β rule and inner-product scale (newEngine checks), so shard
// 0's stand for all of them; set shards have neither, and write 0.
func writeStream(w io.Writer, shards []shard) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write(pls9Magic[:]); err != nil {
		return cw.n, fmt.Errorf("core: write magic: %w", err)
	}
	h := header{Metric: shards[0].Metric(), Shards: uint32(len(shards))}
	if ix, ok := shards[0].(*Index); ok {
		h.A2scale, h.MIPScale = ix.a2scale, ix.mipScale
	}
	if err := binary.Write(cw, binary.LittleEndian, &h); err != nil {
		return cw.n, fmt.Errorf("core: write header: %w", err)
	}
	for _, sh := range shards {
		if err := sh.writeBody(cw); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("core: flush: %w", err)
	}
	return cw.n, nil
}

// writeBody writes the published view as a vector shard's body.
func (ix *Index) writeBody(w io.Writer) error {
	v, cfg := ix.view.Load(), ix.cfg
	head := bodyHead{
		M: uint32(cfg.M), Pivots: uint32(cfg.NumPivots), Capacity: uint32(cfg.Capacity),
		Alpha1: cfg.Alpha1, Seed: cfg.Seed, SampleSize: uint32(cfg.DistSampleSize),
		RMinShrink: cfg.RMinShrink, Beta: cfg.Beta, AutoCompact: cfg.AutoCompactFraction,
		Dim: uint32(ix.dim), Slots: uint32(len(v.flat) / ix.dim), IDs: uint32(len(v.rowOf)),
	}
	if err := binary.Write(w, binary.LittleEndian, &head); err != nil {
		return fmt.Errorf("core: write config: %w", err)
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

// Load deserializes an index written with WriteTo: a PLS9 stream of one
// vector shard, or an older stream that holds one.
func Load(r io.Reader) (*Index, error) {
	shards, err := load(r)
	if err != nil {
		return nil, err
	}
	if len(shards) != 1 {
		return nil, fmt.Errorf("core: a stream of %d shards is an engine; load it with LoadEngine", len(shards))
	}
	ix, ok := shards[0].(*Index)
	if !ok {
		return nil, fmt.Errorf("core: a jaccard stream holds a set shard, not a vector index; load it with LoadEngine")
	}
	return ix, nil
}

// load reads a stream of any version into its shards. A PLS9 stream
// states its header, an older one stands for one (see the layout above);
// then one loop reads the shards it announces.
func load(r io.Reader) ([]shard, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	count, next := 1, func() (shard, error) { return readLegacy(br, magic) }
	switch magic {
	case pls9Magic:
		h, err := readHeader(br)
		if err != nil {
			return nil, err
		}
		count, next = int(h.Shards), func() (shard, error) { return readShard(br, h, pls9Magic) }
	case pls5Magic:
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("core: read shard count: %w", err)
		}
		if n < 2 || n > MaxShards {
			return nil, fmt.Errorf("core: corrupt shard count %d", n)
		}
		count, next = int(n), func() (shard, error) { return readContained(br) }
	}
	shards := make([]shard, count)
	for s := range shards {
		if shards[s], err = next(); err != nil && count > 1 {
			return nil, fmt.Errorf("core: load shard %d: %w", s, err)
		} else if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

func readMagic(r io.Reader) ([4]byte, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return magic, fmt.Errorf("core: read magic: %w", err)
	}
	return magic, nil
}

// readHeader reads a PLS9 header after its magic and refuses one no
// writer produces.
func readHeader(br *bufio.Reader) (header, error) {
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return h, fmt.Errorf("core: read header: %w", err)
	}
	ip := h.Metric == metric.InnerProduct
	switch {
	case !h.Metric.Valid():
		return h, fmt.Errorf("core: unknown metric tag %d", h.Metric)
	case h.Shards < 1 || h.Shards > MaxShards:
		return h, fmt.Errorf("core: corrupt shard count %d", h.Shards)
	case h.Metric != metric.Jaccard && !finitePositive(h.A2scale):
		return h, fmt.Errorf("core: corrupt β scale %v", h.A2scale)
	case ip && !finitePositive(h.MIPScale), !ip && h.MIPScale != 0:
		return h, fmt.Errorf("core: corrupt mip scale %v for %s metric", h.MIPScale, h.Metric)
	}
	return h, nil
}

// readContained reads one shard of a PLS5 container: its length, then a
// complete bare or PLS6 stream of that many bytes.
func readContained(br *bufio.Reader) (shard, error) {
	var length uint64
	if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
		return nil, fmt.Errorf("core: read shard length: %w", err)
	}
	lr := io.LimitReader(br, int64(length))
	inner := bufio.NewReader(lr)
	magic, err := readMagic(inner)
	if err != nil {
		return nil, err
	}
	sh, err := readLegacy(inner, magic)
	if err != nil {
		return nil, err
	}
	// The shard's reader may stop short of its end (a PLS4 stream's tree
	// is not read); skip the rest so the next shard starts aligned.
	if _, err := io.Copy(io.Discard, lr); err != nil {
		return nil, fmt.Errorf("core: skip to the next shard: %w", err)
	}
	return sh, nil
}

// readLegacy reads a one-shard stream older than PLS9 whose magic has
// been consumed: a bare PLS4, PLS7 or PLS8 stream is one L2 shard, a
// PLS6 envelope one shard of its metric.
func readLegacy(br *bufio.Reader, magic [4]byte) (shard, error) {
	h := header{Metric: metric.L2, Shards: 1}
	if magic == pls6Magic {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("core: read metric tag: %w", err)
		}
		h.Metric = metric.Kind(tag)
		switch {
		case !h.Metric.Valid():
			return nil, fmt.Errorf("core: unknown metric tag %d", tag)
		case h.Metric == metric.L2:
			// L2 was always written bare or in a PLS5 container; a PLS6+L2
			// combination only arises from corruption or a foreign writer.
			return nil, fmt.Errorf("core: l2 index in PLS6 envelope")
		case h.Metric == metric.Jaccard:
			return readShard(br, h, magic)
		case h.Metric == metric.InnerProduct:
			if err := binary.Read(br, binary.LittleEndian, &h.MIPScale); err != nil {
				return nil, fmt.Errorf("core: read mip scale: %w", err)
			}
			if !finitePositive(h.MIPScale) {
				return nil, fmt.Errorf("core: corrupt mip scale %v", h.MIPScale)
			}
		}
		if magic, err = readMagic(br); err != nil {
			return nil, err
		}
	}
	switch magic {
	case pls4Magic, pls7Magic, pls8Magic:
		return readShard(br, h, magic)
	case pls5Magic, pls6Magic, pls9Magic: // load reads PLS5 and PLS9 itself
		return nil, fmt.Errorf("core: a %s stream nested in an older one", magic[:])
	case [4]byte{'P', 'L', 'S', '1'}, [4]byte{'P', 'L', 'S', '2'}, [4]byte{'P', 'L', 'S', '3'}:
		return nil, fmt.Errorf("core: snapshot format %s is retired (nothing has written it since PLS4); rebuild the index from its data", magic[:])
	}
	return nil, fmt.Errorf("core: bad magic %q", magic)
}

// readShard reads one shard's body under h; magic names the body's
// layout (PLS4, PLS7, PLS8 or PLS9), and an older one its β rule.
func readShard(br *bufio.Reader, h header, magic [4]byte) (shard, error) {
	if h.Metric == metric.Jaccard {
		mh, err := minhash.Read(br)
		if err != nil {
			return nil, err
		}
		return &setShard{Index: mh}, nil
	}
	ix, err := readBody(br, magic)
	if err != nil {
		return nil, err
	}
	ix.a2scale = h.A2scale
	if magic != pls9Magic {
		ix.a2scale = alpha2Scale(ix.cfg.M, magic != pls8Magic)
	}
	if err := ix.setMetric(h.Metric, h.MIPScale); err != nil {
		return nil, err
	}
	return ix, nil
}

// readBody reads a vector shard's body as an L2 index.
func readBody(br *bufio.Reader, magic [4]byte) (*Index, error) {
	var head bodyHead
	if err := binary.Read(br, binary.LittleEndian, &head); err != nil {
		return nil, fmt.Errorf("core: read config: %w", err)
	}
	cfg := Config{
		M: int(head.M), NumPivots: int(head.Pivots), Capacity: int(head.Capacity),
		ExplicitZeroPivots: head.Pivots == 0, Alpha1: head.Alpha1, Seed: head.Seed,
		DistSampleSize: int(head.SampleSize), RMinShrink: head.RMinShrink, Beta: head.Beta,
		AutoCompactFraction: head.AutoCompact,
	}
	if math.IsNaN(cfg.AutoCompactFraction) || cfg.AutoCompactFraction > 1 {
		return nil, fmt.Errorf("core: corrupt auto-compact fraction %v", cfg.AutoCompactFraction)
	}
	switch head.TreeFlag {
	case 0:
	case 1:
		return nil, fmt.Errorf("core: snapshot of an R-tree index (tree flag 1): that backend is no longer served; rebuild the index from its data")
	default:
		return nil, fmt.Errorf("core: corrupt tree flag %d", head.TreeFlag)
	}
	// A stream may hold zero slots (an index compacted after deleting
	// every point).
	dim, n, idSpace := int(head.Dim), int(head.Slots), int(head.IDs)
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
	// Every row, dead ones included, goes into the tree's projection.
	if err := fillRows(flat, dim, nil); err != nil {
		return nil, err
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
	ix := &Index{
		cfg:  cfg,
		data: data,
		proj: proj,
		tree: tree,
		dim:  dim,
		ndim: dim, // setMetric adjusts for inner product
		t:    math.Sqrt(q),
		chi:  chi,
	}
	ix.publish(rowOf, cdf, 0)
	return ix, nil
}

// setMetric makes ix, read as an L2 index over internal-space rows,
// serve m: under inner product with its scale and one native dimension
// fewer, and under either reduction only once every row is checked
// unit-norm.
func (ix *Index) setMetric(m metric.Kind, mipScale float64) error {
	ix.metric, ix.cfg.Metric = m, m
	if m == metric.L2 {
		return nil
	}
	if m == metric.InnerProduct {
		if ix.dim < 2 {
			return fmt.Errorf("core: inner-product index needs augmented dim >= 2, got %d", ix.dim)
		}
		ix.mipScale = mipScale
		ix.ndim = ix.dim - 1
	}
	// Reduced rows are unit vectors by construction, dead ones included;
	// a stream with a swapped metric byte or a corrupt row fails at load,
	// not at query.
	for i := 0; i < ix.data.Len(); i++ {
		if s := vec.Dot(ix.data.Row(i), ix.data.Row(i)); math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("core: row %d is not unit-norm (|x|^2=%v) for %s metric", i, s, m)
		}
	}
	return nil
}

// finitePositive reports 0 < x < +Inf (false for NaN).
func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

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
