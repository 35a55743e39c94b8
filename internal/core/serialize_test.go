package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pmtree"
	"repro/internal/store"
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

// TestLoadDropsLegacyCodec: a stream written with the screening codec
// retired in PR 29 still loads, and loads as the index it screened —
// the pls4-i8 seed was built from the pls4-plain seed's data and config
// with an i8 codec, so once loaded it writes the plain seed's bytes and
// answers as it does. Its codec block is still read in full: cut inside
// the slack array, the stream is refused.
func TestLoadDropsLegacyCodec(t *testing.T) {
	ctx := context.Background()
	plainBytes, i8Bytes := readFuzzSeed(t, "pls4-plain"), readFuzzSeed(t, "pls4-i8")
	legacy, err := Load(bytes.NewReader(i8Bytes))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := legacy.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plainBytes) {
		t.Fatalf("the loaded i8 stream writes %d bytes that are not the plain seed's %d", buf.Len(), len(plainBytes))
	}
	plain, err := Load(bytes.NewReader(plainBytes))
	if err != nil {
		t.Fatal(err)
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

// A stream whose PM-tree leaf ids disagree with the id map (retired,
// out-of-range or duplicated ids) must be rejected at load time — not
// blow up on the first query that touches the bad entry. (A negative id
// never gets this far: no tree can be built with one, and pmtree.Read
// refuses it in a stream.)
func TestLoadRejectsTreeIDMismatch(t *testing.T) {
	for _, corrupt := range []int32{705, 3} { // out of range, duplicate of a live id
		data := clusteredData(100, 6, 3, 68)
		ix, err := Build(data, Config{Seed: 26})
		if err != nil {
			t.Fatal(err)
		}
		// Swap in a tree over the same projections with one bogus id.
		projected, err := ix.proj.ProjectStore(ix.data)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, 100)
		for i := range ids {
			ids[i] = int32(i)
		}
		ids[7] = corrupt
		tr, err := pmtree.BuildFromStore(projected, ids, pmtree.Config{NumPivots: 5, PivotSeed: 27})
		if err != nil {
			t.Fatal(err)
		}
		ix.tree = tr
		ix.republish()
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("stream with corrupt leaf id %d accepted", corrupt)
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

// BuildFromStore adopts the store without copying and answers exactly
// like Build over the same rows.
func TestBuildFromStoreEquivalent(t *testing.T) {
	data := clusteredData(500, 10, 4, 62)
	a, err := Build(data, Config{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFromStore(s, Config{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 10)
		for j := range q {
			q[j] = rng.NormFloat64() * 10
		}
		ra, err := a.Search(context.Background(), q, 6, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(context.Background(), q, 6, SearchOptions{C: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("result counts differ: %d vs %d", len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, ra[i], rb[i])
			}
		}
	}
}
