package core

// Native fuzz target for index deserialization: corrupt or truncated
// streams must produce an error, never a panic or an unbounded
// allocation. The seed corpus (testdata/fuzz/FuzzLoad, and the same
// set built in-process by fuzzStreams) holds one genuine stream per
// layout that can still occur — PLS4 plain and churned mid-free-list
// (dead marks and a tail in its PMT3 tree), sharded PLS5 containers,
// one of them churned, PLS6 envelopes for cosine, inner product and
// Jaccard — the churned PLS4 stream of the release before the tree was
// frozen (a PMT2 tree grown by inserts, which nothing writes any more
// and Load keeps reading), the i8-quantized PLS4 stream of the release
// before screening was retired (Load reads its codec and drops it),
// plus the inputs Load must
// refuse: one stream per retired magic (testdata keeps real PLS1–PLS3
// bytes from the releases that wrote them), one with the R-tree flag
// set, and two whose tree names an id far beyond the id space. The fuzzer mutates all of them, and their truncations and bit
// flips, further.
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

// treeFlagOff is where a PLS4 stream keeps its tree flag: after the
// magic and the fixed-size config block.
const treeFlagOff = 4 + 3*4 + 8 + 8 + 4 + 2*8 + 8

type fuzzStream struct {
	name string
	data []byte
	// reject marks a stream Load must refuse. retired marks the ones it
	// refuses at the magic, whatever follows, so the in-process bytes
	// and the on-disk seed (genuine PLS1–PLS3 bytes) need not agree.
	// legacy marks a stream nothing writes any more and Load still
	// accepts: the on-disk seed is its only source.
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

// fuzzStreams builds one small index per layout that can still occur
// and returns their encodings, followed by the must-reject streams.
func fuzzStreams(tb testing.TB) []fuzzStream {
	data := clusteredData(16, 3, 2, 7)
	base := Config{M: 3, NumPivots: 2, Seed: 7, DistSampleSize: 16}
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
	plain := add("pls4-plain", plainIx, err)
	// Tombstones and growth: three deletes and one insert — three dead
	// rows in the store and as many dead leaf entries in the tree, one new
	// row behind each.
	churned, err := Build(data, with(func(c *Config) { c.AutoCompactFraction = -1 }))
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range []int32{1, 5, 9} {
		if err := churned.Delete(id); err != nil {
			tb.Fatal(err)
		}
	}
	_, err = churned.Insert(data[2])
	tailed := add("pls4-churned-tail", churned, err)
	// The same index as the release before the frozen tree wrote it.
	legacy := readFuzzSeed(tb, "pls4-churned")
	if !bytes.Contains(legacy, []byte("PMT2")) {
		tb.Fatal("the pls4-churned seed no longer carries a PMT2 tree")
	}
	out = append(out, fuzzStream{name: "pls4-churned", data: legacy, legacy: true})
	// The plain index as the release before PR 29 wrote it with an i8
	// screening codec, which Load reads and drops.
	out = append(out, fuzzStream{name: "pls4-i8", data: readFuzzSeed(tb, "pls4-i8"), legacy: true})
	// Sharded PLS5 containers: shard boundaries, per-shard length
	// prefixes and the inner-stream framing are all attack surface —
	// over bare PLS4 shards and over PLS6 ones.
	eng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2 }))
	if err == nil {
		err = eng.Delete(3)
	}
	add("pls5-2shards", eng, err)
	// Each shard with a tail, one of them with a dead row in it.
	teng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2; c.AutoCompactFraction = -1 }))
	for i := 0; i < 3 && err == nil; i++ {
		_, err = teng.Insert(data[i])
	}
	if err == nil {
		err = teng.Delete(16)
	}
	add("pls5-2shards-tail", teng, err)
	ceng, err := BuildEngine(data, with(func(c *Config) { c.Shards = 2; c.Metric = metric.Cosine }))
	add("pls5-2shards-cosine", ceng, err)
	// PLS6 metric-tagged envelopes: the metric byte, the MIP scale
	// field, and the MinHash PMH1 stream.
	cos, err := Build(data, with(func(c *Config) { c.Metric = metric.Cosine }))
	add("pls6-cosine", cos, err)
	mip, err := Build(data, with(func(c *Config) { c.Metric = metric.InnerProduct }))
	add("pls6-ip", mip, err)
	sets := make([][]uint64, 12)
	for i := range sets {
		sets[i] = []uint64{uint64(i), uint64(i + 1), uint64(2*i + 7), 1 << 20}
	}
	jac, err := BuildSets(sets, Config{Metric: metric.Jaccard, Seed: 7, MinHashBands: 4, MinHashRows: 2})
	add("pls6-jaccard", jac, err)

	// Must-reject: the retired magics and the R-tree flag.
	for _, v := range []byte{'1', '2', '3'} {
		s := append([]byte(nil), plain...)
		s[3] = v
		out = append(out, fuzzStream{name: fmt.Sprintf("v%c-valid", v), data: s, reject: true, retired: true})
	}
	flagged := append([]byte(nil), plain...)
	flagged[treeFlagOff] = 1
	out = append(out, fuzzStream{name: "pls4-rtree-flag", data: flagged, reject: true})
	// A tree id far beyond the id space, which must be refused and not
	// sized for (the tree keeps a delete epoch per id): in the entry the
	// plain stream's last leaf ends with, before the empty tail's length,
	// and in the tail row the churned stream ends with. 1<<26 rather than
	// MaxInt32, so that a loader that did allocate fails the test below
	// instead of the machine.
	const rowLen = 4 + 3*8 // id, projected point
	hugeID := func(name string, src []byte, off int) {
		tb.Helper()
		if id := binary.LittleEndian.Uint32(src[off:]); id > 16 {
			tb.Fatalf("%s: offset %d holds %d, not an id", name, off, id)
		}
		s := append([]byte(nil), src...)
		binary.LittleEndian.PutUint32(s[off:], 1<<26)
		out = append(out, fuzzStream{name: name, data: s, reject: true})
	}
	hugeID("pls4-huge-leaf-id", plain, len(plain)-4-(rowLen+(1+2)*8))
	hugeID("pls4-huge-tail-id", tailed, len(tailed)-rowLen)
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
	f.Add([]byte{})
	f.Add([]byte("PLS3"))
	f.Add([]byte("PLS1garbage"))
	f.Add([]byte("PLS5"))
	f.Add([]byte{'P', 'L', 'S', '5', 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("PLS6"))                          // envelope with no metric byte
	f.Add([]byte{'P', 'L', 'S', '6', 0xff})        // unknown metric tag
	f.Add([]byte{'P', 'L', 'S', '6', 0, 'P', 'L'}) // l2 never uses the envelope

	f.Fuzz(func(t *testing.T, stream []byte) {
		// LoadEngine accepts every on-disk shape — bare PLS4 streams,
		// sharded PLS5 containers and PLS6 envelopes alike.
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
