package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/metrics"
)

func testInputs(t *testing.T, seed int64, pairs int) *inputs {
	t.Helper()
	w := workload{name: "test", spec: dataset.Spec{N: 600, D: 24, SubspaceDim: 6, RCTarget: 2}, shards: 2}
	in, err := generate(w, seed, quickSizes, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The mirror is the judge's notion of the live set. Under seeded
// interleavings of insert, delete and compact it must agree with the
// engine id by id, and its exact top-k must be what an independent
// brute force (lscan over the whole set) finds.
func TestMirrorTracksEngineAndMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := testInputs(t, seed, 150)
		eng, err := core.BuildEngine(in.points, core.Config{Seed: buildSeed, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		mir := newMirror(in.points)
		mut := newMutator(engineTarget{eng}, mir, in)
		rng := rand.New(rand.NewSource(seed))
		for mut.remaining() > 0 {
			mut.run(time.Now(), 1+rng.Intn(40), 0, 0)
			if rng.Intn(3) == 0 {
				if err := eng.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if mut.firstErr != nil {
			t.Fatal(mut.firstErr)
		}
		if err := mut.checkLive(); err != nil {
			t.Fatal(err)
		}
		for id := int32(0); int(id) < eng.Len(); id++ {
			if eng.IsLive(id) != mir.live(id) {
				t.Fatalf("seed %d: id %d live in engine: %v, in mirror: %v", seed, id, eng.IsLive(id), mir.live(id))
			}
		}

		truth, err := mir.truth(in.fixed, queryK)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := lscan.New(mir.rows, lscan.Config{Fraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact := make([][]metrics.Neighbor, len(in.fixed))
		for qi, q := range in.fixed {
			res, err := scan.KNN(q, queryK)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range res {
				exact[qi] = append(exact[qi], metrics.Neighbor{ID: mir.ids[n.ID], Dist: n.Dist})
			}
			for i := range truth[qi] {
				if truth[qi][i].Dist != exact[qi][i].Dist {
					t.Fatalf("seed %d query %d rank %d: mirror truth %v, lscan %v", seed, qi, i, truth[qi][i], exact[qi][i])
				}
			}
		}

		// The scorer: brute force scores 1 and 1 against the truth; a
		// list with j of its k members swapped for the farthest live
		// points scores recall (k-j)/k and a ratio above 1.
		recall, ratio, err := score(exact, truth)
		if err != nil || recall != 1 || ratio != 1 {
			t.Fatalf("seed %d: exact lists score recall %v ratio %v (%v)", seed, recall, ratio, err)
		}
		const swapped = 10
		spoiled := make([][]metrics.Neighbor, len(exact))
		for qi, q := range in.fixed {
			far, err := scan.KNN(q, mir.len())
			if err != nil {
				t.Fatal(err)
			}
			spoiled[qi] = append([]metrics.Neighbor{}, exact[qi][:queryK-swapped]...)
			for _, n := range far[len(far)-swapped:] {
				spoiled[qi] = append(spoiled[qi], metrics.Neighbor{ID: mir.ids[n.ID], Dist: n.Dist})
			}
		}
		recall, ratio, err = score(spoiled, truth)
		if want := float64(queryK-swapped) / queryK; err != nil || math.Abs(recall-want) > 1e-12 || ratio <= 1 {
			t.Fatalf("seed %d: spoiled lists score recall %v (want %v) ratio %v (%v)", seed, recall, want, ratio, err)
		}

		// And the engine's own answers, judged by the same scorer, clear
		// the soak's floor after the churn.
		got := make([][]metrics.Neighbor, len(in.fixed))
		for qi, q := range in.fixed {
			if got[qi], err = mut.t.search(q); err != nil {
				t.Fatal(err)
			}
		}
		if recall, _, err = score(got, truth); err != nil || recall < 0.8 {
			t.Fatalf("seed %d: engine recall %v after churn (%v)", seed, recall, err)
		}
	}
}

// A mirror that disagrees with the program must be caught by the gate.
func TestCheckLiveCatchesDrift(t *testing.T) {
	in := testInputs(t, 1, 4)
	eng, err := core.BuildEngine(in.points, core.Config{Seed: buildSeed})
	if err != nil {
		t.Fatal(err)
	}
	mut := newMutator(engineTarget{eng}, newMirror(in.points), in)
	if err := eng.Delete(3); err != nil { // behind the mirror's back
		t.Fatal(err)
	}
	if err := mut.checkLive(); err == nil {
		t.Fatal("checkLive passed although the engine lost a point the mirror holds")
	}
}
