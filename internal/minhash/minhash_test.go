package minhash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// randSet draws a set of roughly size tokens from a vocabulary.
func randSet(rng *rand.Rand, size, vocab int) []uint64 {
	s := make([]uint64, 0, size)
	for i := 0; i < size; i++ {
		s = append(s, uint64(rng.Intn(vocab)))
	}
	return s
}

// mutate returns a copy of s with frac of its tokens replaced.
func mutate(rng *rand.Rand, s []uint64, frac float64, vocab int) []uint64 {
	out := append([]uint64(nil), s...)
	n := int(float64(len(out)) * frac)
	for i := 0; i < n; i++ {
		out[rng.Intn(len(out))] = uint64(rng.Intn(vocab))
	}
	return out
}

func TestJaccardExact(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	b := []uint64{3, 4, 5, 6}
	if got := Jaccard(a, b); got != 2.0/6.0 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard = %v", got)
	}
	if got := Jaccard(a, []uint64{9}); got != 0 {
		t.Fatalf("disjoint Jaccard = %v", got)
	}
}

func TestCanonicalize(t *testing.T) {
	got, err := Canonicalize([]uint64{5, 1, 5, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if _, err := Canonicalize(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestSignatureDeterministicAndSeedSensitive(t *testing.T) {
	x1, _ := New(Config{Seed: 7})
	x2, _ := New(Config{Seed: 7})
	x3, _ := New(Config{Seed: 8})
	s := []uint64{10, 20, 30, 40, 50}
	a := x1.signature(s, nil)
	b := x2.signature(s, nil)
	c := x3.signature(s, nil)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different signatures")
	}
	if !diff {
		t.Fatal("different seeds produced identical signatures")
	}
}

// TestSearchVsOracle checks that band-LSH search finds the near
// neighbors an exact Jaccard scan finds, on a corpus with planted
// high-similarity sets.
func TestSearchVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, vocab = 400, 5000
	sets := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		sets = append(sets, randSet(rng, 60, vocab))
	}
	x, err := Build(sets, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	found := 0
	const queries = 30
	for qi := 0; qi < queries; qi++ {
		src := rng.Intn(n)
		q := mutate(rng, sets[src], 0.1, vocab) // ~0.8+ similarity
		res, st, err := x.Search(q, 5, SearchOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Verified > st.Candidates {
			t.Fatalf("verified %d > candidates %d", st.Verified, st.Candidates)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				t.Fatal("results unsorted")
			}
		}
		for _, nb := range res {
			qc, _ := Canonicalize(q)
			if want := 1 - Jaccard(qc, x.Set(nb.ID)); nb.Dist != want {
				t.Fatalf("distance %v, exact rescore says %v", nb.Dist, want)
			}
			if nb.ID == int32(src) {
				found++
			}
		}
	}
	if frac := float64(found) / queries; frac < 0.9 {
		t.Fatalf("found the planted source in only %.0f%% of queries", 100*frac)
	}
}

func TestSearchFilterBudgetThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sets := make([][]uint64, 0, 50)
	base := randSet(rng, 40, 1000)
	for i := 0; i < 50; i++ {
		sets = append(sets, mutate(rng, base, 0.05*float64(i%8), 1000))
	}
	x, err := Build(sets, Config{Seed: 1, Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := x.Search(base, 50, SearchOpt{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if nb.Dist > 0.4+1e-12 {
			t.Fatalf("threshold 0.6 leaked distance %v", nb.Dist)
		}
	}
	// Filter: only even ids.
	res, _, err = x.Search(base, 50, SearchOpt{Filter: func(id int32) bool { return id%2 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if nb.ID%2 != 0 {
			t.Fatalf("filter leaked id %d", nb.ID)
		}
	}
	// Budget caps rescores.
	_, st, err := x.Search(base, 50, SearchOpt{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Verified > 3 {
		t.Fatalf("budget 3, verified %d", st.Verified)
	}
	// A k beyond anything the index holds sizes no allocation: it
	// answers like k = everything.
	all, _, err := x.Search(base, len(sets), SearchOpt{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = x.Search(base, math.MaxInt, SearchOpt{})
	if err != nil || len(res) != len(all) {
		t.Fatalf("k=MaxInt: %d neighbors, err %v; want %d", len(res), err, len(all))
	}
}

func TestLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for i := 0; i < 20; i++ {
		id, err := x.Insert(randSet(rng, 30, 500))
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("id %d, want %d", id, i)
		}
		ids = append(ids, id)
	}
	if x.Len() != 20 || x.LiveLen() != 20 {
		t.Fatalf("Len=%d LiveLen=%d", x.Len(), x.LiveLen())
	}
	for _, id := range ids[:5] {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := x.Delete(id); err == nil {
			t.Fatal("double delete succeeded")
		}
	}
	if _, live, dead, _ := x.Counts(); live != 15 || dead != 5 {
		t.Fatalf("LiveLen=%d Dead=%d", live, dead)
	}
	// Deleted ids never come back from search.
	res, _, err := x.Search(x.Set(ids[6]), 20, SearchOpt{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if nb.ID < 5 {
			t.Fatalf("deleted id %d in results", nb.ID)
		}
	}
	if err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	if ids, live, dead, compactions := x.Counts(); dead != 0 || compactions != 1 || ids != 20 || live != 15 {
		t.Fatalf("post-compact Dead=%d Compactions=%d Len=%d Live=%d", dead, compactions, ids, live)
	}
	// Ids keep advancing after compact.
	id, err := x.Insert(randSet(rng, 30, 500))
	if err != nil {
		t.Fatal(err)
	}
	if id != 20 {
		t.Fatalf("post-compact id %d, want 20", id)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, err := New(Config{Bands: 8, Rows: 4, Seed: 99, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := x.Insert(randSet(rng, 25, 800)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{3, 7, 12} {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, _, xDead, _ := x.Counts()
	_, _, yDead, _ := y.Counts()
	if y.Len() != x.Len() || y.LiveLen() != x.LiveLen() || yDead != xDead ||
		y.Bands() != x.Bands() || y.Rows() != x.Rows() || y.Seed() != x.Seed() ||
		y.Threshold() != x.Threshold() {
		t.Fatal("round trip changed index shape")
	}
	q := x.Set(20)
	a, _, err := x.Search(q, 10, SearchOpt{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := y.Search(q, 10, SearchOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("round trip changed result count %d -> %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d drifted: %v vs %v", i, a[i], b[i])
		}
	}
	// Serialized bytes are deterministic.
	var buf2 bytes.Buffer
	if _, err := y.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("serialization is not deterministic across a round trip")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	x, _ := New(Config{Seed: 1})
	x.Insert([]uint64{1, 2, 3})
	var buf bytes.Buffer
	x.WriteTo(&buf)
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	copy(bad, "XXXX")
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Unsorted set payload.
	bad = append([]byte(nil), good...)
	// tokens are the last 24 bytes: swap first and last token.
	tok := bad[len(bad)-24:]
	for i := 0; i < 8; i++ {
		tok[i], tok[16+i] = tok[16+i], tok[i]
	}
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("unsorted set accepted")
	}
}

// TestReadBoundsSetAllocation: a short stream whose set claims 2²⁸
// tokens (2 GiB) fails with a read error, having allocated about what it
// held, not what it claimed.
func TestReadBoundsSetAllocation(t *testing.T) {
	x, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const setLenAt = 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 // magic, header, id space
	if got := binary.LittleEndian.Uint32(raw[setLenAt:]); got != 3 {
		t.Fatalf("offset %d holds %d, not the set's length 3", setLenAt, got)
	}
	binary.LittleEndian.PutUint32(raw[setLenAt:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read of a set claiming 2^28 tokens: %v, want a short read", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 64<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte stream", grown, len(raw))
	}
}

func TestBandProbabilityShape(t *testing.T) {
	// Empirical sanity check of the 1-(1-s^r)^b S-curve: high-similarity
	// pairs should collide in some band far more often than mid-similarity
	// pairs under the default 16x8 layout.
	rng := rand.New(rand.NewSource(21))
	x, _ := New(Config{Seed: 4})
	collide := func(frac float64) float64 {
		hits, trials := 0, 60
		for t := 0; t < trials; t++ {
			a, _ := Canonicalize(randSet(rng, 80, 1<<20))
			b, _ := Canonicalize(mutate(rng, a, frac, 1<<20))
			sa := x.signature(a, nil)
			sb := x.signature(b, nil)
			for band := 0; band < x.cfg.Bands; band++ {
				if x.bandKey(sa, band) == x.bandKey(sb, band) {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(trials)
	}
	hi := collide(0.05) // ~0.9 similarity
	lo := collide(0.55) // ~0.4 similarity
	if hi < 0.9 {
		t.Errorf("high-similarity collision rate %.2f, want >= 0.9", hi)
	}
	if lo > 0.35 {
		t.Errorf("mid-similarity collision rate %.2f, want <= 0.35", lo)
	}
}

// TestSearchesRunThroughCompaction: a Compact of a few thousand sets
// rebuilds every band's table beside the queries — under the read side
// of the lock, writers held off by their own mutex — so searches keep
// answering while it runs, and since compaction changes no id, every
// answer is the one the index gave before (and gives after). Run under
// -race: the table swap is the only moment a query is excluded.
func TestSearchesRunThroughCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := make([][]uint64, 40)
	for i := range base {
		base[i] = randSet(rng, 40, 5000)
	}
	for i := 0; i < 3000; i++ {
		if _, err := x.Insert(mutate(rng, base[i%len(base)], 0.15, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int32(0); id < 3000; id += 7 { // something for Compact to reclaim
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]metrics.Neighbor, len(base))
	for i, q := range base {
		if want[i], _, err = x.Search(q, 10, SearchOpt{}); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("query %d finds nothing; the test would assert nothing", i)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered [4]int
	for w := range answered {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i = (i + 1) % len(base) {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := x.Search(base[i], 10, SearchOpt{})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("query %d answered %v during compaction, %v before it", i, got, want[i])
					return
				}
				answered[w]++
			}
		}()
	}
	for round := 0; round < 5; round++ {
		if err := x.Compact(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, _, dead, compactions := x.Counts(); compactions != 5 || dead != 0 {
		t.Fatalf("after 5 compactions: Compactions=%d Dead=%d", compactions, dead)
	}
	for i, q := range base {
		got, _, err := x.Search(q, 10, SearchOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("query %d answers %v after compaction, %v before", i, got, want[i])
		}
	}
	t.Logf("searches answered while compacting: %v", answered)
}
