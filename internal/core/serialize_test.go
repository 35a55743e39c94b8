package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/pmtree"
)

func TestIndexSerializeRoundTrip(t *testing.T) {
	data := clusteredData(800, 16, 5, 60)
	orig, err := Build(data, Config{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Dim() != orig.Dim() || loaded.M() != orig.M() {
		t.Fatalf("shape mismatch")
	}
	if loaded.T() != orig.T() {
		t.Errorf("t differs: %v vs %v", loaded.T(), orig.T())
	}

	// Identical answers for a batch of queries.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		q := make([]float64, 16)
		for j := range q {
			q[j] = rng.NormFloat64() * 15
		}
		a, err := orig.Search(context.Background(), q, 8, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(context.Background(), q, 8, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
				t.Fatalf("results differ at %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}

	// The loaded index accepts inserts.
	id, err := loaded.Insert(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 800 {
		t.Errorf("insert after load assigned id %d", id)
	}
}

func TestIndexSerializeZeroPivots(t *testing.T) {
	data := clusteredData(300, 10, 3, 62)
	orig, _ := Build(data, Config{Seed: 22, ExplicitZeroPivots: true})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tree().NumPivots() != 0 {
		t.Errorf("pivots = %d after load", loaded.Tree().NumPivots())
	}
}

func TestLoadRejectsCorruptStreams(t *testing.T) {
	data := clusteredData(200, 8, 3, 63)
	orig, _ := Build(data, Config{Seed: 23})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'Z'
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Error("truncated stream accepted")
	}

	// The retired layouts are refused by name, not as an unknown magic.
	for _, v := range []byte{'1', '2', '3'} {
		bad := append([]byte(nil), raw...)
		bad[3] = v
		_, err := Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "PLS"+string(v)) || strings.Contains(err.Error(), "bad magic") {
			t.Errorf("PLS%c stream: got %v, want an error naming the retired version", v, err)
		}
	}

	// The tree flag (treeFlagOff, fuzz_test.go): 0 is the only value
	// ever served. 1 once meant an R-tree index, the rest are corruption
	// that used to load as a PM-tree index.
	if raw[treeFlagOff] != 0 {
		t.Fatalf("tree flag byte is %d, want 0", raw[treeFlagOff])
	}
	for _, flag := range []byte{1, 2, 255} {
		bad := append([]byte(nil), raw...)
		bad[treeFlagOff] = flag
		_, err := Load(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("tree flag %d accepted", flag)
		} else if flag == 1 && !strings.Contains(err.Error(), "R-tree") {
			t.Errorf("tree flag 1: error %q does not say R-tree snapshots are no longer served", err)
		}
	}

	// The PLS9 header: a stream no writer produces is refused before a
	// body is read.
	mip, err := Build(data, Config{Seed: 23, Metric: metric.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	var ipBuf bytes.Buffer
	if _, err := mip.WriteTo(&ipBuf); err != nil {
		t.Fatal(err)
	}
	ipRaw := ipBuf.Bytes()
	const shardsAt, a2scaleAt, mipAt = 5, 9, 17
	if _, err := Load(bytes.NewReader(ipRaw)); err != nil {
		t.Fatal(err)
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	for _, tc := range []struct {
		name   string
		stream []byte
		at     int
		field  []byte
	}{
		{"unknown metric tag", raw, 4, []byte{9}},
		{"zero shards", raw, shardsAt, u32(0)},
		{"shards beyond MaxShards", raw, shardsAt, u32(MaxShards + 1)},
		{"zero a2scale", raw, a2scaleAt, f64(0)},
		{"negative a2scale", raw, a2scaleAt, f64(-1)},
		{"NaN a2scale", raw, a2scaleAt, f64(math.NaN())},
		{"infinite a2scale", raw, a2scaleAt, f64(math.Inf(1))},
		{"mip scale under l2", raw, mipAt, f64(1)},
		{"NaN mip scale under l2", raw, mipAt, f64(math.NaN())},
		{"zero mip scale under inner product", ipRaw, mipAt, f64(0)},
		{"negative mip scale under inner product", ipRaw, mipAt, f64(-2)},
		{"NaN mip scale under inner product", ipRaw, mipAt, f64(math.NaN())},
		{"infinite mip scale under inner product", ipRaw, mipAt, f64(math.Inf(1))},
	} {
		bad := bytes.Clone(tc.stream)
		copy(bad[tc.at:], tc.field)
		_, errIndex := Load(bytes.NewReader(bad))
		_, errEngine := LoadEngine(bytes.NewReader(bad))
		if errIndex == nil || errEngine == nil {
			t.Errorf("a PLS9 stream with %s loaded: %v, %v", tc.name, errIndex, errEngine)
		}
	}

	// A PLS9 stream cut where its last shard would begin, and a one-shard
	// stream whose header claims a second.
	e, err := BuildEngine(data, Config{Seed: 23, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	two := engineBytes(t, e)
	var first bytes.Buffer
	if _, err := vecs(e)[0].WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two[headerLen:first.Len()], first.Bytes()[headerLen:]) {
		t.Fatal("a 2-shard stream does not begin with its first shard's body")
	}
	claims := bytes.Clone(raw)
	copy(claims[shardsAt:], u32(2))
	for name, cut := range map[string][]byte{"cut before its last shard": two[:first.Len()], "one shard short": claims} {
		if _, err := LoadEngine(bytes.NewReader(cut)); err == nil {
			t.Errorf("a PLS9 stream %s loaded", name)
		}
	}

	// A PLS5 container holds bare or PLS6 streams, not another container
	// and not a PLS9 stream.
	pls8 := readFuzzSeed(t, "pls8-plain")
	if _, err := LoadEngine(bytes.NewReader(container(pls8, pls8))); err != nil {
		t.Fatalf("a PLS5 container of two PLS8 streams: %v", err)
	}
	for name, nested := range map[string][]byte{
		"PLS9": container(pls8, raw),
		"PLS5": container(pls8, container(pls8, pls8)),
	} {
		if _, err := LoadEngine(bytes.NewReader(nested)); err == nil || !strings.Contains(err.Error(), "nested") {
			t.Errorf("a %s stream nested in a PLS5 container: got %v, want a refusal", name, err)
		}
	}
}

func sameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: rank %d diverged: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func samePairs(t *testing.T, label string, a, b []Pair) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d pairs vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].I != b[i].I || a[i].J != b[i].J ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: rank %d diverged: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestLoadDropsLegacyCodec: a stream written with the retired screening
// codec still loads, and loads as the index it screened —
// the pls4-i8 seed was built from the pls4-plain seed's data and config
// with an i8 codec, so once loaded it writes what the loaded plain seed
// writes, and what the loaded pls7-plain seed (the same index, saved by
// the release after) writes: one PLS9 stream, which round trips. It
// answers as the plain seed does. Its codec block is still read in full:
// cut inside the slack array, the stream is refused.
func TestLoadDropsLegacyCodec(t *testing.T) {
	ctx := context.Background()
	plainBytes, i8Bytes := readFuzzSeed(t, "pls4-plain"), readFuzzSeed(t, "pls4-i8")
	legacy, err := Load(bytes.NewReader(i8Bytes))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Load(bytes.NewReader(plainBytes))
	if err != nil {
		t.Fatal(err)
	}
	pls7, err := Load(bytes.NewReader(readFuzzSeed(t, "pls7-plain")))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := pls7.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want.Bytes(), []byte("PLS9")) {
		t.Fatalf("the loaded pls7-plain seed writes %q", want.Bytes()[:4])
	}
	again, err := Load(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{legacy, plain, again} {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("an index loaded from a PLS4 seed, or reloaded, writes %d bytes that are not the loaded pls7-plain seed's %d", buf.Len(), want.Len())
		}
	}

	data := clusteredData(16, 3, 2, 7) // fuzzStreams' data
	for qi, q := range append(data[:4:4], []float64{0.5, -3, 2}) {
		for _, k := range []int{1, 5, 16} {
			want, err := plain.Search(ctx, q, k, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := legacy.Search(ctx, q, k, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("Search q%d k=%d", qi, k), want, got)
		}
		for _, r := range []float64{0.5, 2, 8} {
			want, err := plain.SearchBall(ctx, q, r, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := legacy.SearchBall(ctx, q, r, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("SearchBall q%d r=%v", qi, r)
			switch {
			case (got == nil) != (want == nil):
				t.Fatalf("%s: got %v, want %v", label, got, want)
			case got != nil:
				sameResults(t, label, []Result{*want}, []Result{*got})
			}
		}
	}
	for _, k := range []int{1, 10} {
		want, err := plain.SearchPairs(ctx, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := legacy.SearchPairs(ctx, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("SearchPairs k=%d", k), want, got)
	}

	// The kind byte is where the two streams first differ; offsets and
	// scales (dim f64 each) follow it, then the slack.
	const dim = 3
	kindOff := 0
	for plainBytes[kindOff] == i8Bytes[kindOff] {
		kindOff++
	}
	if plainBytes[kindOff] != 0 || i8Bytes[kindOff] != 2 || len(i8Bytes) != len(plainBytes)+3*dim*8 {
		t.Fatalf("the seeds' codec blocks are not where the layout puts them (offset %d)", kindOff)
	}
	cut := kindOff + 1 + 2*dim*8 + 12
	if _, err := Load(bytes.NewReader(i8Bytes[:cut])); err == nil {
		t.Fatal("an i8 stream cut inside its slack array loaded")
	}
}

// A delete-heavy history must round-trip: the loaded index answers
// every query identically, agrees on Len/LiveLen, keeps retired ids
// dead, and — because the free list is persisted in order — recycles
// storage slots for post-load Inserts exactly like the saved index.
func TestSerializeRoundTripDeleteHeavy(t *testing.T) {
	data := clusteredData(600, 12, 5, 65)
	ix, err := Build(data, Config{Seed: 25, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	// Interleaved churn: delete 40%, re-insert a handful.
	for _, id := range rng.Perm(600)[:240] {
		if err := ix.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Insert(data[rng.Intn(len(data))]); err != nil {
			t.Fatal(err)
		}
	}

	compare := func(label string, a, b *Index) {
		t.Helper()
		if a.Len() != b.Len() || a.LiveLen() != b.LiveLen() {
			t.Fatalf("%s: shape %d/%d vs %d/%d", label, a.Len(), a.LiveLen(), b.Len(), b.LiveLen())
		}
		qrng := rand.New(rand.NewSource(67))
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, 12)
			for j := range q {
				q[j] = qrng.NormFloat64() * 12
			}
			ra, err := a.Search(context.Background(), q, 9, SearchOptions{C: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(context.Background(), q, 9, SearchOptions{C: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s trial %d: %d vs %d results", label, trial, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s trial %d rank %d: %+v vs %+v", label, trial, i, ra[i], rb[i])
				}
			}
		}
		pa, err := a.SearchPairs(context.Background(), 6, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.SearchPairs(context.Background(), 6, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(pa) != len(pb) {
			t.Fatalf("%s: pair counts %d vs %d", label, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s pair %d: %+v vs %+v", label, i, pa[i], pb[i])
			}
		}
		// Deleted ids stay rejected after the round trip.
		var deadID int32 = -1
		for id := int32(0); int(id) < a.Len(); id++ {
			if !a.IsLive(id) {
				deadID = id
				break
			}
		}
		if deadID >= 0 {
			if err := b.Delete(deadID); err == nil {
				t.Fatalf("%s: loaded index re-deleted retired id %d", label, deadID)
			}
		}
		// Post-load inserts assign the same ids and land in the same
		// storage rows.
		ia, err := a.Insert(data[0])
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Insert(data[0])
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.view.Load().rowOf[ia], b.view.Load().rowOf[ib]
		if ia != ib || ra != rb {
			t.Fatalf("%s: post-load insert diverged: id %d row %d vs id %d row %d",
				label, ia, ra, ib, rb)
		}
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compare("pre-compact", ix, loaded)

	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compare("post-compact", ix, loaded)
}

// generationState is one engine a snapshot must reproduce; make builds
// it afresh, the same engine every call.
type generationState struct {
	name string
	make func(t *testing.T) *Engine
}

// generationStates are L2, cosine and inner-product engines over 1 and 3
// shards, as built, churned (a tail and dead rows on every shard, well
// short of an auto-compaction) and compacted after that churn, each
// once with its shards' trees bulk loaded and once without.
func generationStates() []generationState {
	var out []generationState
	for _, m := range []metric.Kind{metric.L2, metric.Cosine, metric.InnerProduct} {
		for _, shards := range []int{1, 3} {
			for _, state := range []string{"built", "churned", "compacted"} {
				for _, loaded := range []bool{false, true} {
					out = append(out, generationState{
						name: fmt.Sprintf("%v/shards=%d/%s/tree loaded %v", m, shards, state, loaded),
						make: func(t *testing.T) *Engine { return generationEngine(t, m, shards, state, loaded) },
					})
				}
			}
		}
	}
	return out
}

// generationData is what every generationEngine is built over; its first
// rows are clusteredData(k, 8, 6, 111).
var generationData = clusteredData(480, 8, 6, 111)

func generationEngine(t *testing.T, m metric.Kind, shards int, state string, loaded bool) *Engine {
	t.Helper()
	e, err := BuildEngine(generationData, Config{Seed: 112, Shards: shards, Metric: m, DistSampleSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if state != "built" {
		rng := rand.New(rand.NewSource(113))
		for i := 0; i < 90; i++ {
			if _, err := e.Insert(nearCopy(rng, generationData[rng.Intn(len(generationData))])); err != nil {
				t.Fatal(err)
			}
			if id := int32(rng.Intn(e.Len())); i%3 != 2 && e.IsLive(id) {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		info := e.Info()
		if info.Compactions != 0 || slices.Min(info.TailFraction) == 0 || slices.Min(info.DeadFraction) == 0 {
			t.Fatalf("the churn left %+v: compacted, or a shard without a tail or dead rows", info)
		}
	}
	if state == "compacted" {
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if loaded {
		for _, ix := range vecs(e) {
			ix.Tree().ScanRadius()
		}
	}
	return e
}

// nearCopy returns p shrunk by a thousandth and jittered a little less:
// a near-duplicate for ball and pair queries to find, and inside the
// inner-product reduction's norm bound.
func nearCopy(rng *rand.Rand, p []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = v*(1-1e-3) + 1e-4*rng.NormFloat64()
	}
	return out
}

// treePrint is what a test outside pmtree sees of a tree, bulk loading
// it: its counts and switch radius, every node's geometry in traversal
// order, and from each leaf's center a traversal at the leaf's radius —
// the ids and distance bits it finds, and the metric evaluations it pays.
func treePrint(t *testing.T, tr *pmtree.Tree) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintln(&b, tr.Len(), tr.Rows(), tr.Tail(), tr.NumPivots(), math.Float64bits(tr.ScanRadius()))
	tr.Walk(func(n pmtree.NodeInfo) {
		fmt.Fprintln(&b, n)
		if n.Leaf && n.Center != nil {
			var en pmtree.RangeEnumerator
			if err := en.ResetTree(tr, n.Center); err != nil {
				t.Fatal(err)
			}
			en.Expand(n.Radius, func(id int32, d float64) { fmt.Fprint(&b, id, math.Float64bits(d), " ") })
			fmt.Fprintln(&b, en.DistComps())
		}
	})
	return b.String()
}

// requireSameEngine fails unless got — loaded or recovered from a
// snapshot of want — is want: the same Info (the session's compaction
// count aside), the same bytes written again, the same k-NN, ball and
// pair answers with every statistic, the same tree on every shard once a
// structural query has loaded it, and the next auto-compaction at the
// same insert, after which both write the same bytes again.
func requireSameEngine(t *testing.T, label string, want, got *Engine) {
	t.Helper()
	ctx := context.Background()
	wi, gi := want.Info(), got.Info()
	compacted := wi.Compactions
	skew := wi.Compactions - gi.Compactions
	wi.Compactions, gi.Compactions = 0, 0
	if !reflect.DeepEqual(wi, gi) {
		t.Fatalf("%s: Info %+v, saved %+v", label, gi, wi)
	}
	if !bytes.Equal(engineBytes(t, want), engineBytes(t, got)) {
		t.Fatalf("%s: the snapshot does not write again what it was written from", label)
	}
	rng := rand.New(rand.NewSource(114))
	queries := clusteredData(12, 8, 6, 111)
	for i := range 6 {
		queries = append(queries, nearCopy(rng, queries[i]))
	}
	radii := []float64{0.1, 3}
	if wi.Metric == metric.Cosine {
		radii = []float64{1e-6, 1e-3}
	}
	for qi, q := range queries {
		var sa, sb QueryStats
		ra, err := want.Search(ctx, q, 10, SearchOptions{Stats: &sa})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := got.Search(ctx, q, 10, SearchOptions{Stats: &sb})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, fmt.Sprintf("%s: Search %d", label, qi), ra, rb)
		if sa != sb {
			t.Fatalf("%s: Search %d did %+v, saved %+v", label, qi, sb, sa)
		}
		for _, r := range radii {
			ba, errA := want.SearchBall(ctx, q, r, SearchOptions{Stats: &sa})
			bb, errB := got.SearchBall(ctx, q, r, SearchOptions{Stats: &sb})
			if (errA == nil) != (errB == nil) || (ba == nil) != (bb == nil) ||
				(ba != nil && (ba.ID != bb.ID || math.Float64bits(ba.Dist) != math.Float64bits(bb.Dist))) || sa != sb {
				t.Fatalf("%s: SearchBall %d at %v = %v %+v %v, saved %v %+v %v", label, qi, r, bb, sb, errB, ba, sa, errA)
			}
		}
	}
	var pa, pb CPStats
	wp, errA := want.SearchPairs(ctx, 5, SearchOptions{PairStats: &pa})
	gp, errB := got.SearchPairs(ctx, 5, SearchOptions{PairStats: &pb})
	if (errA == nil) != (errB == nil) || pa != pb {
		t.Fatalf("%s: SearchPairs did %+v (%v), saved %+v (%v)", label, pb, errB, pa, errA)
	}
	samePairs(t, label+": SearchPairs", wp, gp)
	for s := range want.shards {
		if treePrint(t, vecs(want)[s].Tree()) != treePrint(t, vecs(got)[s].Tree()) {
			t.Fatalf("%s: shard %d's tree differs from the saved one", label, s)
		}
	}

	for i := 0; want.Info().Compactions == compacted; i++ {
		if i == 1000 {
			t.Fatalf("%s: 1000 inserts and no auto-compaction", label)
		}
		p := nearCopy(rng, queries[i%len(queries)])
		a, err := want.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || want.Info().Compactions-got.Info().Compactions != skew {
			t.Fatalf("%s: insert %d got ids %d and %d, compactions %d and %d (saved first)",
				label, i, a, b, want.Info().Compactions, got.Info().Compactions)
		}
	}
	if !bytes.Equal(engineBytes(t, want), engineBytes(t, got)) {
		t.Fatalf("%s: the engines write different bytes after the auto-compaction", label)
	}
}

// TestRoundTripKeepsTheGeneration: a snapshot stores each shard's rows
// and where its tree's generation ends, not the tree, and LoadEngine
// makes of it the engine that was saved (requireSameEngine), tail, dead
// rows and tree alike, whether the saved trees had been bulk loaded or
// not — over every generationStates engine.
func TestRoundTripKeepsTheGeneration(t *testing.T) {
	for _, st := range generationStates() {
		saved := st.make(t)
		loaded, err := LoadEngine(bytes.NewReader(engineBytes(t, saved)))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := bulkLoads(t, loaded); slices.Max(got) != 0 {
			t.Fatalf("%s: loading ran %v bulk loads", st.name, got)
		}
		requireSameEngine(t, st.name, saved, loaded)
	}
}

// TestLoadValidatesEveryRow: Load refuses a stream with one bad row
// wherever the row sits, not only on a sampled one — a NaN component,
// which a Search would return as a distance of NaN, and under a reduced
// metric a row that is not unit-norm. Row 1 of 400 is the row a
// one-in-64 sample skips.
func TestLoadValidatesEveryRow(t *testing.T) {
	data := clusteredData(400, 6, 4, 70)
	for _, tc := range []struct {
		m   metric.Kind
		bad float64
	}{
		{metric.L2, math.NaN()},
		{metric.L2, math.Inf(-1)},
		{metric.Cosine, 2},
	} {
		ix, err := Build(data, Config{Seed: 29, Metric: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if _, err := Load(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		// Row 1's first value: past the config, the shape, the projection
		// and the distance sample, then one row of dim values.
		v := ix.view.Load()
		off := treeFlagOff + 1 + 3*4 + ix.cfg.M*ix.dim*8 + 4 + len(v.distCDF)*8 + ix.dim*8
		if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[off:])); got != v.flat[ix.dim] {
			t.Fatalf("%v: offset %d holds %v, not row 1's first value %v", tc.m, off, got, v.flat[ix.dim])
		}
		binary.LittleEndian.PutUint64(raw[off:], math.Float64bits(tc.bad))
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%v: a stream with %v in row 1 loaded", tc.m, tc.bad)
		}
	}
}

// TestWriteListsDeadRowsAscending: the free list a stream carries is the
// rows no live id maps to, ascending, whatever order the deletes came
// in — and Load refuses one that names a row twice, a row out of range,
// or a row a live id maps to.
func TestWriteListsDeadRowsAscending(t *testing.T) {
	data := clusteredData(40, 5, 2, 71)
	ix, err := Build(data, Config{Seed: 30, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{17, 3, 29} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v := ix.view.Load()
	at := treeFlagOff + 1 + 3*4 + ix.cfg.M*ix.dim*8 + 4 + len(v.distCDF)*8 + len(v.flat)*8
	free := func(i int) []byte { return raw[at+4+4*i:] }
	if n := binary.LittleEndian.Uint32(raw[at:]); n != 3 {
		t.Fatalf("the free list has %d rows, want 3", n)
	}
	for i, want := range []uint32{3, 17, 29} {
		if got := binary.LittleEndian.Uint32(free(i)); got != want {
			t.Fatalf("free list entry %d is row %d, want %d", i, got, want)
		}
	}
	for _, forged := range []uint32{3, 40, 0} { // twice, out of range, live
		bad := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(bad[at+4+4*2:], forged)
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("a free list of rows 3, 17, %d loaded", forged)
		}
	}
}

// A stream whose id map aliases two ids onto one storage row must be
// rejected even when the mapped count matches the live count.
func TestLoadRejectsDuplicateRowMapping(t *testing.T) {
	data := clusteredData(40, 5, 2, 69)
	ix, err := Build(data, Config{Seed: 28, AutoCompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(2); err != nil {
		t.Fatal(err)
	}
	// Forge aliasing that preserves the mapped count: live id 5 points at
	// id 0's row and its own row goes unmapped.
	rowOf := ix.view.Load().rowOf
	rowOf[5] = rowOf[0]
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("stream with duplicate row mapping accepted")
	}
}
