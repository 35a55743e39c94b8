package core

// Native fuzz target for index deserialization: corrupt or truncated
// streams must produce an error, never a panic or an unbounded
// allocation. The seed corpus (testdata/fuzz/FuzzLoad, and the same
// set built in-process by fuzzStreams) holds one genuine stream per
// layout the code writes — PLS8 plain and churned mid-free-list (dead
// rows and a tail behind the generation count), sharded PLS5 containers
// of PLS8 streams, one of them churned, PLS6 envelopes for cosine, inner
// product and Jaccard — and the streams earlier releases wrote, which
// Load keeps reading: the same PLS7 layouts (the β rule before PLS8),
// and every PLS4 layout above, whose serialized PM-tree
// it no longer reads (the churned PLS4 stream of the release before the
// tree was frozen, with a PMT2 tree grown by inserts; the i8-quantized
// one of the release before screening was retired, whose codec Load
// reads and drops; two whose tree names an id far beyond the id space,
// which mattered while the tree was read). Then the inputs Load must
// refuse: one stream per retired magic (testdata keeps real PLS1–PLS3
// bytes from the releases that wrote them), one with the R-tree flag set
// in each layout, a PLS8 and a PLS7 stream whose generation outnumbers its
// rows, and a Jaccard stream whose first set claims 2²⁸ tokens it does
// not hold. FuzzLoad adds a PLS8 stream cut inside each of its fields; the fuzzer
// mutates all of them, and their truncations and bit flips, further.
//
// Run with: go test -fuzz=FuzzLoad -fuzztime=10s ./internal/core
// After a layout change: go test ./internal/core -run TestFuzzLoadCorpus -update-fuzz-corpus

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metric"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzLoad from fuzzStreams")

// treeFlagOff is where a PLS4, PLS7 or PLS8 stream keeps its tree flag: after
// the magic and the fixed-size config block.
const treeFlagOff = 4 + 3*4 + 8 + 8 + 4 + 2*8 + 8

type fuzzStream struct {
	name string
	data []byte
	// reject marks a stream Load must refuse. retired marks the ones it
	// refuses at the magic, whatever follows, so the in-process bytes
	// and the on-disk seed (genuine PLS1–PLS3 bytes) need not agree.
	// legacy marks a stream nothing writes any more: the on-disk seed is
	// its only source.
	reject, retired, legacy bool
}

// fuzzSeedDir is the checked-in FuzzLoad corpus.
var fuzzSeedDir = filepath.Join("testdata", "fuzz", "FuzzLoad")

// readFuzzSeed returns the bytes of one checked-in seed.
func readFuzzSeed(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(fuzzSeedDir, name))
	if err != nil {
		tb.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if body, ok = strings.CutSuffix(body, ")\n"); !ok {
		tb.Fatalf("%s is not a one-value []byte seed", name)
	}
	data, err := strconv.Unquote(body)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// fuzzData and fuzzConfig are what every seed index is built from.
var (
	fuzzData   = clusteredData(16, 3, 2, 7)
	fuzzConfig = Config{M: 3, NumPivots: 2, Seed: 7, DistSampleSize: 16}
)

// fuzzChurned is the index of the churned seeds: three deletes and one
// insert — three dead rows in the store, a one-row tail behind them.
func fuzzChurned(tb testing.TB) *Index {
	tb.Helper()
	cfg := fuzzConfig
	cfg.AutoCompactFraction = -1
	ix, err := Build(fuzzData, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range []int32{1, 5, 9} {
		if err := ix.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := ix.Insert(fuzzData[2]); err != nil {
		tb.Fatal(err)
	}
	return ix
}

// fuzzStreams builds one small index per layout the code writes and
// returns their encodings, the streams of earlier releases, and the
// must-reject streams.
func fuzzStreams(tb testing.TB) []fuzzStream {
	data, base := fuzzData, fuzzConfig
	var out []fuzzStream
	add := func(name string, w io.WriterTo, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, fuzzStream{name: name, data: buf.Bytes()})
		return buf.Bytes()
	}
	with := func(mod func(*Config)) Config {
		cfg := base
		mod(&cfg)
		return cfg
	}

	plainIx, err := Build(data, base)
	plain := add("pls8-plain", plainIx, err)
	tailed := add("pls8-churned-tail", fuzzChurned(tb), nil)
	// Sharded PLS5 containers: shard boundaries, per-shard length
	// prefixes and the inner-stream framing are all attack surface —
	// over bare shard streams and over PLS6 ones.
	eng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2 }))
	if err == nil {
		err = eng.Delete(3)
	}
	add("pls5-pls8-2shards", eng, err)
	// Each shard with a tail, one of them with a dead row in it.
	teng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2; c.AutoCompactFraction = -1 }))
	for i := 0; i < 3 && err == nil; i++ {
		_, err = teng.Insert(data[i])
	}
	if err == nil {
		err = teng.Delete(16)
	}
	add("pls5-pls8-2shards-tail", teng, err)
	ceng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2; c.Metric = metric.Cosine }))
	add("pls5-pls8-2shards-cosine", ceng, err)
	// PLS6 metric-tagged envelopes: the metric byte, the MIP scale
	// field, and the MinHash PMH1 stream.
	cos, err := Build(data, with(func(c *Config) { c.Metric = metric.Cosine }))
	add("pls6-pls8-cosine", cos, err)
	mip, err := Build(data, with(func(c *Config) { c.Metric = metric.InnerProduct }))
	add("pls6-pls8-ip", mip, err)
	sets := make([][]uint64, 12)
	for i := range sets {
		sets[i] = []uint64{uint64(i), uint64(i + 1), uint64(2*i + 7), 1 << 20}
	}
	jac, err := BuildSets(sets, Config{Metric: metric.Jaccard, Seed: 7, MinHashBands: 4, MinHashRows: 2})
	jaccard := add("pls6-jaccard", jac, err)

	// What earlier releases wrote of the same indexes: PLS7 streams, bare
	// and in both containers, and PLS4 ones, each ending in a PM-tree
	// stream.
	for _, name := range []string{"pls7-plain", "pls7-churned-tail", "pls5-pls7-2shards",
		"pls5-pls7-2shards-tail", "pls5-pls7-2shards-cosine", "pls6-pls7-cosine", "pls6-pls7-ip",
		"pls4-plain", "pls4-churned-tail", "pls4-churned", "pls4-i8",
		"pls4-huge-leaf-id", "pls4-huge-tail-id", "pls5-2shards", "pls5-2shards-tail",
		"pls5-2shards-cosine", "pls6-cosine", "pls6-ip"} {
		legacy := readFuzzSeed(tb, name)
		if name == "pls4-churned" && !bytes.Contains(legacy, []byte("PMT2")) {
			tb.Fatal("the pls4-churned seed no longer carries a PMT2 tree")
		}
		out = append(out, fuzzStream{name: name, data: legacy, legacy: true})
	}

	// Must-reject: the retired magics, the R-tree flag, a generation count
	// beyond the rows, and a set length beyond the stream.
	for _, v := range []byte{'1', '2', '3'} {
		s := append([]byte(nil), plain...)
		s[3] = v
		out = append(out, fuzzStream{name: fmt.Sprintf("v%c-valid", v), data: s, reject: true, retired: true})
	}
	flagged := append([]byte(nil), plain...)
	flagged[treeFlagOff] = 1
	out = append(out, fuzzStream{name: "pls8-rtree-flag", data: flagged, reject: true})
	for _, name := range []string{"pls7-rtree-flag", "pls4-rtree-flag", "pls7-generation-above-rows"} {
		out = append(out, fuzzStream{name: name, data: readFuzzSeed(tb, name), reject: true, legacy: true})
	}
	over := append([]byte(nil), tailed...)
	binary.LittleEndian.PutUint32(over[len(over)-4:], uint32(len(data)+2))
	out = append(out, fuzzStream{name: "pls8-generation-above-rows", data: over, reject: true})
	// The first MinHash set's length, past the envelope (5 bytes) and the
	// PMH1 header (40), claims 2²⁸ tokens: a read error, not a 2 GiB set.
	huge := append([]byte(nil), jaccard...)
	binary.LittleEndian.PutUint32(huge[5+40:], 1<<28)
	out = append(out, fuzzStream{name: "pls6-jaccard-huge-set", data: huge, reject: true})
	return out
}

// streamCuts returns ix's PLS8 stream cut inside each of its fields (the
// layout in serialize.go), by field name: a one-byte field is cut off
// whole. Every one of them must be refused.
func streamCuts(tb testing.TB, ix *Index) map[string][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	v := ix.view.Load()
	fields := []struct {
		name string
		size int
	}{
		{"magic", 4}, {"config ints", 12}, {"alpha1", 8}, {"seed", 8}, {"sample size", 4},
		{"rmin shrink and beta", 16}, {"auto-compact fraction", 8}, {"tree flag", 1},
		{"shape", 12}, {"projection", ix.cfg.M * ix.dim * 8},
		{"cdf length", 4}, {"cdf", len(v.distCDF) * 8}, {"data", len(v.flat) * 8},
		{"free-list length", 4}, {"free list", v.dead() * 4}, {"row map", len(v.rowOf) * 4},
		{"quantize kind", 1}, {"generation", 4},
	}
	out := map[string][]byte{}
	at := 0
	for _, f := range fields {
		if f.size == 0 {
			tb.Fatalf("the stream has no %s to cut inside", f.name)
		}
		out[f.name] = buf.Bytes()[:at+f.size/2]
		at += f.size
	}
	if at != buf.Len() {
		tb.Fatalf("the fields add up to %d bytes, the stream has %d", at, buf.Len())
	}
	return out
}

// TestFuzzLoadCorpus keeps the checked-in seed corpus equal to what the
// code writes today, so the fuzzer always starts from streams that can
// occur, and pins the must-reject seeds as rejected.
func TestFuzzLoadCorpus(t *testing.T) {
	dir := fuzzSeedDir
	streams := fuzzStreams(t)
	for _, s := range streams {
		path := filepath.Join(dir, s.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if *updateFuzzCorpus && !s.retired && !s.legacy {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !s.retired && string(got) != want {
			t.Errorf("%s is stale; regenerate with -update-fuzz-corpus", path)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := LoadEngine(bytes.NewReader(s.data)); (err != nil) != s.reject {
			t.Errorf("%s: LoadEngine error %v, must reject: %v", s.name, err, s.reject)
		}
		runtime.ReadMemStats(&after)
		// A megabyte of read buffer per shard; an id or count sizing an
		// allocation would be hundreds.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s: loading %d bytes allocated %d", s.name, len(s.data), got)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(streams) {
		t.Errorf("%s holds %d seeds, fuzzStreams builds %d", dir, len(entries), len(streams))
	}
	for field, cut := range streamCuts(t, fuzzChurned(t)) {
		if _, err := LoadEngine(bytes.NewReader(cut)); err == nil {
			t.Errorf("a stream cut inside its %s loaded", field)
		}
	}
}

func FuzzLoad(f *testing.F) {
	for _, fs := range fuzzStreams(f) {
		s := fs.data
		f.Add(s)
		f.Add(s[:len(s)/2]) // truncated body
		f.Add(s[:11])       // truncated header
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(flipped)
	}
	for _, cut := range streamCuts(f, fuzzChurned(f)) {
		f.Add(cut)
	}
	f.Add([]byte{})
	f.Add([]byte("PLS3"))
	f.Add([]byte("PLS1garbage"))
	f.Add([]byte("PLS5"))
	f.Add([]byte{'P', 'L', 'S', '5', 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("PLS6"))                          // envelope with no metric byte
	f.Add([]byte{'P', 'L', 'S', '6', 0xff})        // unknown metric tag
	f.Add([]byte{'P', 'L', 'S', '6', 0, 'P', 'L'}) // l2 never uses the envelope

	f.Fuzz(func(t *testing.T, stream []byte) {
		// LoadEngine accepts every on-disk shape — bare PLS4, PLS7 and
		// PLS8 streams, sharded PLS5 containers and PLS6 envelopes alike.
		eng, err := LoadEngine(bytes.NewReader(stream))
		if err != nil {
			return
		}
		if len(stream) >= 4 && stream[0] == 'P' && stream[1] == 'L' && stream[2] == 'S' && stream[3] >= '1' && stream[3] <= '3' {
			t.Fatalf("retired format %q loaded", stream[:4])
		}
		// A stream that loads must yield a queryable engine. The zero
		// vector has no direction, so the reduced metrics get a query
		// they accept.
		q := make([]float64, eng.Dim())
		switch eng.Metric() {
		case metric.Jaccard:
			q = []float64{1, 2, 3} // a token set; Dim() is 0 for sets
		case metric.Cosine, metric.InnerProduct:
			for i := range q {
				q[i] = 1
			}
		}
		if _, err := eng.Search(context.Background(), q, 3, SearchOptions{C: 1.5}); err != nil {
			t.Fatalf("loaded engine cannot answer: %v", err)
		}
		if eng.LiveLen() > eng.Len() {
			t.Fatalf("LiveLen %d exceeds Len %d", eng.LiveLen(), eng.Len())
		}
	})
}
