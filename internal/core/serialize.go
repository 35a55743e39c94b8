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
	"repro/internal/pmtree"
	"repro/internal/stats"
	"repro/internal/store"
)

// Binary serialization of a PM-LSH index. The stream is little-endian:
//
//	magic "PLS4"
//	config: m u32 | pivots u32 | capacity u32 | alpha1 f64 | seed i64 |
//	        sampleSize u32 | rminShrink f64 | beta f64 |
//	        autoCompact f64 | tree flag u8 (always 0)
//	dim u32 | slots u32 | nextID u32
//	projection rows (m × dim f64)
//	distCDF length u32 + values
//	data (slots × dim f64, the store's flat buffer verbatim —
//	tombstoned rows keep their values)
//	free list: u32 count + count × i32 slots — the dead rows, in the
//	order they were deleted
//	rowOf: nextID × i32 (id → slot, -1 = deleted)
//	quantize: kind u8; then for i8: off + scale (dim × f64 each);
//	for f32 and i8: slack (dim × f64)
//	PM-tree stream
//
// The free list and the id → row indirection carry the
// mutation-lifecycle state, so an index saved mid-churn loads with the
// same live set, the same retired ids, and the same dead rows — the
// field keeps the name it had while Insert refilled them; nothing does
// any more, and a stream written then loads with its dead rows staying
// dead. Of the quantized-screening codec only the
// per-dimension parameters travel — the codes are re-derived
// deterministically from the stored rows on load (store.RestoreCodec),
// reproducing bit-identical screen bounds at a cost of 8·dim·3 bytes
// instead of a full code matrix. A loaded index answers queries
// identically to the saved one.
//
// The tree flag once selected an R-tree over the projections (flag 1,
// no tree stream); that backend is no longer served, the byte stays so
// PLS4 streams keep their layout, and Load rejects any non-zero value.
// PLS1–PLS3, the layouts before churn state and the codec, are retired:
// nothing has written them since PLS4 and Load names the version in its
// error.

// Version 6 ("PLS6") is the metric-tagged container for non-L2
// indexes:
//
//	magic "PLS6" | metric u8
//	InnerProduct only: scale S f64 (the build-time norm bound)
//	then the complete backend stream — the full PLS4 stream above
//	(internal-space rows, so dim is the augmented dimensionality
//	under InnerProduct) for the vector reductions, or the MinHash
//	"PMH1" stream (internal/minhash) for Jaccard.
//
// L2 indexes keep writing the bare PLS4 stream, byte-identical to
// every earlier release; PLS4 and PLS5 streams load as L2. An unknown
// metric tag is a hard error, never a panic.
var plsMagic = [4]byte{'P', 'L', 'S', '4'}
var pls6Magic = [4]byte{'P', 'L', 'S', '6'}

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
// envelope. L2 never takes this path, so pre-PR-10 snapshots stay
// byte-identical.
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

// encode writes v as a PLS4 stream.
func (ix *Index) encode(w io.Writer, v *view) error {
	if _, err := w.Write(plsMagic[:]); err != nil {
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
	// The store's flat buffer is the wire format; encode it through a
	// fixed-size chunk buffer (binary.Write would materialize the whole
	// 8*n*dim-byte encoding at once, doubling memory during save).
	if err := writeFloat64s(w, v.flat); err != nil {
		return fmt.Errorf("core: write data: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v.deadRows))); err != nil {
		return fmt.Errorf("core: write free-list length: %w", err)
	}
	if len(v.deadRows) > 0 {
		if err := binary.Write(w, binary.LittleEndian, v.deadRows); err != nil {
			return fmt.Errorf("core: write free list: %w", err)
		}
	}
	if len(v.rowOf) > 0 {
		// A deleted id keeps its row in the view until Compact; the stream
		// says -1 for it either way.
		rowOf := make([]int32, len(v.rowOf))
		for id, row := range v.rowOf {
			rowOf[id] = -1
			if v.tree.IsLive(int32(id)) {
				rowOf[id] = row
			}
		}
		if err := binary.Write(w, binary.LittleEndian, rowOf); err != nil {
			return fmt.Errorf("core: write row map: %w", err)
		}
	}
	kind := v.codec.Kind()
	if _, err := w.Write([]byte{byte(kind)}); err != nil {
		return fmt.Errorf("core: write quantize kind: %w", err)
	}
	if c := v.codec; c != nil {
		off, scale, slack := c.Params()
		if kind == store.QuantI8 {
			if err := writeFloat64s(w, off); err != nil {
				return fmt.Errorf("core: write codec offsets: %w", err)
			}
			if err := writeFloat64s(w, scale); err != nil {
				return fmt.Errorf("core: write codec scales: %w", err)
			}
		}
		if err := writeFloat64s(w, slack); err != nil {
			return fmt.Errorf("core: write codec slack: %w", err)
		}
	}
	if _, err := v.tree.WriteTo(w); err != nil {
		return fmt.Errorf("core: write tree: %w", err)
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
	case plsMagic:
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
	cdf, err := readFloat64s(br, int(cdfLen))
	if err != nil {
		return nil, fmt.Errorf("core: read cdf: %w", err)
	}

	flat, err := readFloat64s(br, n*dim)
	if err != nil {
		return nil, fmt.Errorf("core: read data: %w", err)
	}
	data, err := store.FromFlat(flat, dim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Churn state: free list (tombstones) and the id → row map.
	rowOf := make([]int32, idSpace)
	var freeLen uint32
	if err := binary.Read(br, binary.LittleEndian, &freeLen); err != nil {
		return nil, fmt.Errorf("core: read free-list length: %w", err)
	}
	if int(freeLen) > n {
		return nil, fmt.Errorf("core: free list of %d slots exceeds %d rows", freeLen, n)
	}
	if freeLen > 0 {
		free := make([]int32, freeLen)
		if err := binary.Read(br, binary.LittleEndian, free); err != nil {
			return nil, fmt.Errorf("core: read free list: %w", err)
		}
		// RestoreDeadRows rejects out-of-range and duplicate slots.
		if err := data.RestoreDeadRows(free); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if idSpace > 0 {
		if err := binary.Read(br, binary.LittleEndian, rowOf); err != nil {
			return nil, fmt.Errorf("core: read row map: %w", err)
		}
	}
	// The map must be a bijection between live ids and live rows: every
	// mapped row in range, live, and mapped only once; the mapped count
	// then pins down full coverage.
	rowSeen := make([]bool, n)
	mapped := 0
	for id, row := range rowOf {
		if row < 0 {
			continue
		}
		if int(row) >= n || !data.IsLive(int(row)) {
			return nil, fmt.Errorf("core: id %d maps to invalid row %d", id, row)
		}
		if rowSeen[row] {
			return nil, fmt.Errorf("core: row %d mapped by more than one id", row)
		}
		rowSeen[row] = true
		mapped++
	}
	live := data.Live()
	if mapped != live {
		return nil, fmt.Errorf("core: row map covers %d rows, store has %d live", mapped, live)
	}

	// Quantized-screening codec: re-derive the codes from the rows just
	// loaded under the persisted per-dimension parameters. RestoreCodec
	// validates the kind and parameter shapes.
	qb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: read quantize kind: %w", err)
	}
	kind := store.QuantKind(qb)
	var off, scale, slack []float64
	switch kind {
	case store.QuantNone:
	case store.QuantF32, store.QuantI8:
		if kind == store.QuantI8 {
			if off, err = readFloat64s(br, dim); err != nil {
				return nil, fmt.Errorf("core: read codec offsets: %w", err)
			}
			if scale, err = readFloat64s(br, dim); err != nil {
				return nil, fmt.Errorf("core: read codec scales: %w", err)
			}
		}
		if slack, err = readFloat64s(br, dim); err != nil {
			return nil, fmt.Errorf("core: read codec slack: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown quantize kind %d", kind)
	}
	if err := data.RestoreCodec(kind, off, scale, slack); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg.Quantize = kind

	tree, err := pmtree.Read(br, idSpace)
	if err != nil {
		return nil, fmt.Errorf("core: read tree: %w", err)
	}
	if tree.Len() != live || tree.Dim() != cfg.M {
		return nil, fmt.Errorf("core: tree shape %d×%d does not match index %d×%d",
			tree.Len(), tree.Dim(), live, cfg.M)
	}
	// The tree's ids — its live leaf entries and tail rows — must be
	// exactly the live ids, each once — a corrupt stream mapping a row to
	// a retired or out-of-range id would otherwise panic at query time
	// instead of erroring here.
	idSeen := make([]bool, idSpace)
	badID := false
	tree.WalkIDs(func(id int32) {
		if id < 0 || int(id) >= idSpace || rowOf[id] < 0 || idSeen[id] {
			badID = true
			return
		}
		idSeen[id] = true
	})
	if badID {
		return nil, fmt.Errorf("core: tree leaf ids do not match the live id set")
	}

	chi := stats.ChiSquared{K: cfg.M}
	q, err := chi.UpperQuantile(cfg.Alpha1)
	if err != nil {
		return nil, fmt.Errorf("core: deriving t: %w", err)
	}
	t := math.Sqrt(q)
	kappa := 1.0
	if xStar, err := chi.Quantile(paperAlpha2); err == nil {
		kappa = xStar * paperC * paperC / (t * t)
	}
	ix := &Index{
		cfg:   cfg,
		data:  data,
		proj:  proj,
		tree:  tree,
		dim:   dim,
		ndim:  dim, // loadPLS6 adjusts for reduced metrics
		t:     t,
		chi:   chi,
		kappa: kappa,
	}
	ix.publish(rowOf, cdf, 0)
	// Sanity: stored data must be finite.
	for i := 0; i < n; i += 1 + n/64 {
		if !finite(data.Row(i)) {
			return nil, fmt.Errorf("core: non-finite data at row %d", i)
		}
	}
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
		// L2 is always written as a bare PLS4/PLS5 stream; a PLS6+L2
		// combination only arises from corruption or a foreign writer.
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
	// Reduced rows are unit vectors by construction; spot-check so a
	// stream with a swapped metric byte fails at load, not at query.
	n := ix.data.Len()
	for i := 0; i < n; i += 1 + n/64 {
		if !ix.data.IsLive(i) {
			continue
		}
		s := 0.0
		for _, v := range ix.data.Row(i) {
			s += v * v
		}
		if math.Abs(s-1) > 1e-6 {
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

// readFloat64s reads total little-endian float64s incrementally: the
// buffer grows only as data actually arrives, so a corrupt header
// demanding more floats than the stream holds fails with a read error
// once the stream ends instead of committing a header-sized up-front
// allocation.
func readFloat64s(r io.Reader, total int) ([]float64, error) {
	const chunk = 16384
	capHint := total
	if capHint > 1<<24 {
		capHint = 1 << 24
	}
	out := make([]float64, 0, capHint)
	buf := make([]byte, chunk*8)
	for len(out) < total {
		n := total - len(out)
		if n > chunk {
			n = chunk
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out, nil
}

// writeFloat64s streams fs as little-endian float64s through a bounded
// scratch buffer.
func writeFloat64s(w io.Writer, fs []float64) error {
	const chunk = 16384
	buf := make([]byte, chunk*8)
	for len(fs) > 0 {
		n := len(fs)
		if n > chunk {
			n = chunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(fs[i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		fs = fs[n:]
	}
	return nil
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
