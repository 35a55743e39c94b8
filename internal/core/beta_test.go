package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/stats"
)

// TestDeriveParamsKeepsThePaperPoint: at the paper's m = 15 the fixed κ
// gives the α2 the per-m calibration gave — the published 0.1405 at
// c = 1.5 — at every c and α1, within 1e-12.
func TestDeriveParamsKeepsThePaperPoint(t *testing.T) {
	chi := stats.ChiSquared{K: 15}
	xStar, err := chi.Quantile(paperAlpha2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha1 := range []float64{1 / math.E, 0.12} {
		ix, err := Build(randData(50, 6, 1), Config{M: 15, Alpha1: alpha1})
		if err != nil {
			t.Fatal(err)
		}
		q, err := chi.UpperQuantile(alpha1)
		if err != nil {
			t.Fatal(err)
		}
		kappa := xStar * paperC * paperC / q // the calibration re-solved per index
		for _, c := range []float64{1.1, 1.5, 2, 3} {
			p, err := ix.DeriveParams(c)
			if err != nil {
				t.Fatal(err)
			}
			if old := chi.CDF(kappa * q / (c * c)); math.Abs(p.Alpha2-old) > 1e-12 || p.Beta != 2*p.Alpha2 {
				t.Errorf("α1=%v c=%v: α2 %v β %v, the per-m calibration gave α2 %v", alpha1, c, p.Alpha2, p.Beta, old)
			}
		}
		if p, _ := ix.DeriveParams(paperC); math.Abs(p.Alpha2-paperAlpha2) > 1e-9 {
			t.Errorf("α1=%v: α2(1.5) = %v, want the published %v", alpha1, p.Alpha2, paperAlpha2)
		}
	}
}

// TestBetaFallsWithM pins the rule's operating points: β(c = 1.5) at
// m = 20, 24 and 30, the same for every α1, while the rule of the
// streams before PLS8 keeps 0.281 at every m.
func TestBetaFallsWithM(t *testing.T) {
	for _, tc := range []struct {
		m    int
		beta float64
	}{{15, 0.281}, {20, 0.195}, {24, 0.147}, {30, 0.097}} {
		if got := CandidateFraction(tc.m, paperC); math.Abs(got-tc.beta) > 0.0015 {
			t.Errorf("m=%d: β = %.4f, want ≈ %.3f", tc.m, got, tc.beta)
		}
		ix, err := Build(randData(50, 6, 1), Config{M: tc.m, Alpha1: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := ix.DeriveParams(paperC); p.Beta != CandidateFraction(tc.m, paperC) {
			t.Errorf("m=%d α1=0.12: β = %v, CandidateFraction %v: α1 entered β", tc.m, p.Beta, CandidateFraction(tc.m, paperC))
		}
		legacy := 2 * stats.ChiSquared{K: tc.m}.CDF(alpha2Scale(tc.m, true)/(paperC*paperC))
		if math.Abs(legacy-2*paperAlpha2) > 1e-9 {
			t.Errorf("m=%d: the per-m rule gives β %v, want %v", tc.m, legacy, 2*paperAlpha2)
		}
	}
}

// TestLegacyStreamKeepsItsBeta loads streams written before PLS8 — at
// m = 3, where the two rules disagree most — bare and sharded: each
// answers with the β it was saved with (the per-m rule's 0.281), writes
// a PLS9 stream whose header carries that rule, and keeps it through a
// compaction and a reload, round after round, while a fresh build of
// the same configuration takes the fixed-κ β.
func TestLegacyStreamKeepsItsBeta(t *testing.T) {
	fresh, err := Build(fuzzData, fuzzConfig)
	if err != nil {
		t.Fatal(err)
	}
	pFresh, _ := fresh.DeriveParams(paperC)
	if pFresh.Beta != CandidateFraction(fuzzConfig.M, paperC) || math.Abs(pFresh.Beta-2*paperAlpha2) < 0.1 {
		t.Fatalf("a fresh m=%d build has β %v; the rules must disagree here for this test to mean anything", fuzzConfig.M, pFresh.Beta)
	}
	var buf bytes.Buffer
	if _, err := fresh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("PLS9")) {
		t.Fatalf("a fresh build writes %q", buf.Bytes()[:4])
	}
	for _, seed := range []string{"pls7-plain", "pls7-churned-tail", "pls5-pls7-2shards", "pls6-pls7-cosine"} {
		e, err := LoadEngine(bytes.NewReader(readFuzzSeed(t, seed)))
		if err != nil {
			t.Fatal(seed, err)
		}
		for round := 0; round < 3; round++ {
			p, err := e.DeriveParams(paperC)
			if err != nil {
				t.Fatal(seed, err)
			}
			if e.shards[0].M() != fuzzConfig.M || math.Abs(p.Beta-2*paperAlpha2) > 1e-9 {
				t.Fatalf("%s round %d: m=%d β=%v, saved with m=%d β=%v", seed, round, e.shards[0].M(), p.Beta, fuzzConfig.M, 2*paperAlpha2)
			}
			var out bytes.Buffer
			if _, err := e.WriteTo(&out); err != nil {
				t.Fatal(seed, err)
			}
			if !bytes.HasPrefix(out.Bytes(), []byte("PLS9")) {
				t.Fatalf("%s round %d: the loaded index writes %q, not PLS9", seed, round, out.Bytes()[:4])
			}
			if err := e.Compact(); err != nil {
				t.Fatal(seed, err)
			}
			if p2, _ := e.DeriveParams(paperC); p2.Beta != p.Beta {
				t.Fatalf("%s round %d: β %v after a compaction, %v before", seed, round, p2.Beta, p.Beta)
			}
			if e, err = LoadEngine(&out); err != nil {
				t.Fatal(seed, err)
			}
		}
	}
}
