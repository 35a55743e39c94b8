package core

import (
	"bytes"
	"context"
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

// A quantized index must round-trip with bit-identical screen bounds:
// only the per-dim codec parameters travel, the codes are re-derived
// from the loaded rows, and a loaded index keeps screening (same
// answers, Screened still firing).
func TestSerializeQuantizedRoundTrip(t *testing.T) {
	for _, kind := range []store.QuantKind{store.QuantF32, store.QuantI8} {
		t.Run(kind.String(), func(t *testing.T) {
			data := clusteredData(500, 14, 5, 641)
			ix, err := Build(data, Config{Seed: 30, Quantize: kind, AutoCompactFraction: -1})
			if err != nil {
				t.Fatal(err)
			}
			// Churn so the free list is non-trivial and appends have gone
			// through the live codec. Inserts stay inside the fitted range
			// (jittered copies of existing points) — far-out inserts would
			// widen the per-dim slack and legitimately disarm the screen,
			// which is not what this test is about.
			rng := rand.New(rand.NewSource(642))
			for _, id := range rng.Perm(500)[:80] {
				if err := ix.Delete(int32(id)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				src := data[rng.Intn(len(data))]
				p := make([]float64, 14)
				for j := range p {
					p[j] = src[j] + rng.NormFloat64()*0.5
				}
				if _, err := ix.Insert(p); err != nil {
					t.Fatal(err)
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
			if loaded.cfg.Quantize != kind || loaded.data.Quantize() != kind {
				t.Fatalf("quantize kind lost: cfg=%v store=%v", loaded.cfg.Quantize, loaded.data.Quantize())
			}
			// Screen bounds must be bit-identical, not just close: the
			// codes re-derived on load under the persisted parameters are
			// the same bytes the saved index held.
			c1, c2 := ix.data.Codec(), loaded.data.Codec()
			for trial := 0; trial < 30; trial++ {
				q := make([]float64, 14)
				for j := range q {
					q[j] = rng.NormFloat64() * 20
				}
				row := rng.Intn(ix.data.Len())
				a := c1.QueryLowerBound(q, row, 100)
				b := c2.QueryLowerBound(q, row, 100)
				if a != b {
					t.Fatalf("screen bound diverged after load: row=%d %v vs %v", row, a, b)
				}
			}
			// And the loaded index answers identically, still screening.
			screened := 0
			for trial := 0; trial < 15; trial++ {
				q := make([]float64, 14)
				for j := range q {
					q[j] = rng.NormFloat64() * 20
				}
				ra, err := ix.Search(context.Background(), q, 8, SearchOptions{C: 1.5})
				if err != nil {
					t.Fatal(err)
				}
				var st QueryStats
				rb, err := loaded.Search(context.Background(), q, 8, SearchOptions{C: 1.5, Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				if len(ra) != len(rb) {
					t.Fatalf("trial %d: %d vs %d results", trial, len(ra), len(rb))
				}
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, ra[i], rb[i])
					}
				}
				screened += st.Screened
			}
			if screened == 0 {
				t.Fatal("loaded index never screened")
			}
		})
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
