package pmlsh

// Property-based tests (testing/quick) of the public API: for
// randomized configurations — pivot counts, hash counts, PM-tree vs
// R-tree — a serialization round trip must preserve every answer
// exactly, and an index grown by Insert must keep the quality
// guarantee it was built with.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lscan"
)

func quickData(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64, mSel, pivSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		piv := int(pivSel % 7)
		cfg := Config{
			M:          6 + int(mSel%12), // 6..17 hash functions
			NumPivots:  piv,
			ZeroPivots: piv == 0,
			Seed:       seed,
		}
		data := quickData(rng, 150, 12)
		ix, err := Build(data, cfg)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		// A random churn phase: the round trip must also preserve
		// tombstones, retired ids and the auto-compaction state.
		for i := 0; i < 5+rng.Intn(30); i++ {
			if rng.Intn(3) == 0 {
				if _, err := ix.Insert(quickData(rng, 1, 12)[0]); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				continue
			}
			// Deleting a random id; re-hitting an already-deleted one is
			// part of the random program and errors by contract.
			id := int32(rng.Intn(ix.Len()))
			wasLive := ix.IsLive(id)
			if err := ix.Delete(id); (err == nil) != wasLive {
				t.Logf("delete %d (live=%v): %v", id, wasLive, err)
				return false
			}
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Logf("load: %v", err)
			return false
		}
		for qi := 0; qi < 5; qi++ {
			q := make([]float64, 12)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(8)
			a, err := ix.Search(context.Background(), q, k, WithRatio(1.5))
			if err != nil {
				return false
			}
			b, err := loaded.Search(context.Background(), q, k, WithRatio(1.5))
			if err != nil {
				return false
			}
			if len(a) != len(b) {
				t.Logf("lengths differ: %d vs %d", len(a), len(b))
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					t.Logf("rank %d: %+v vs %+v", i, a[i], b[i])
					return false
				}
			}
		}
		// Closest pairs survive the round trip too.
		pa, err := ix.SearchPairs(context.Background(), 5, WithRatio(1.5))
		if err != nil {
			return false
		}
		pb, err := loaded.SearchPairs(context.Background(), 5, WithRatio(1.5))
		if err != nil {
			return false
		}
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Logf("pair %d: %+v vs %+v", i, pa[i], pb[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertKeepsGuarantee grows an index incrementally and checks
// the (c,k) quality guarantee against brute force after every growth
// step — the API-level complement of the pmtree-level build-equivalence
// property (the engine's radii adapt to the data seen, so incremental
// and one-shot indexes may probe differently; what must hold is the
// guarantee, not bitwise equality).
func TestQuickInsertKeepsGuarantee(t *testing.T) {
	f := func(seed int64, mSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := quickData(rng, 240, 10)
		cfg := Config{M: 8 + int(mSel%8), Seed: seed}
		ix, err := Build(data[:120], cfg)
		if err != nil {
			return false
		}
		for i := 120; i < len(data); i++ {
			if _, err := ix.Insert(data[i]); err != nil {
				return false
			}
		}
		sc, err := lscan.New(data, lscan.Config{Fraction: 1.0, Seed: 1})
		if err != nil {
			return false
		}
		const k, c = 5, 1.5
		for qi := 0; qi < 4; qi++ {
			q := data[rng.Intn(len(data))]
			got, err := ix.Search(context.Background(), q, k, WithRatio(c))
			if err != nil || len(got) != k {
				return false
			}
			exact, err := sc.KNN(q, k)
			if err != nil {
				return false
			}
			// Spot-check the guarantee at the last rank (the loosest).
			if got[k-1].Dist > c*exact[k-1].Dist+1e-9 {
				t.Logf("rank %d: %v exceeds c×exact %v", k-1, got[k-1].Dist, exact[k-1].Dist)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
