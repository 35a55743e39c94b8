package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/metric"
)

// TestPairsGolden pins SearchPairs to the answers recorded at the
// commit before the closest-pair drivers were merged (PR 19), when a
// 1-shard vector query ran searchPairsSerial, an N-shard one ran
// cpSharded.run, a 1-shard Jaccard query ran minhash.Index.SearchPairs
// and an N-shard one the sharded band join. Every case compares ids,
// math.Float64bits(Dist) and every CPStats field.
//
// shards=1 and Jaccard rows are compared verbatim. At shards > 1 two
// differences from the parent's sharded loop are permitted, and only
// in the statistics — the pairs stay element-wise equal: Enumerated,
// Verified and ProjectedDistComps may be lower than recorded, never
// higher. The parent's merge re-pulled a source the moment it handed
// out its head; searchPairsSerial pulled its one enumerator only when
// the loop came back for more. One loop cannot do both, and keeping the
// 1-shard sequence means an N-shard query no longer pulls (and
// verifies) the candidate behind a head that shrank the cutoff or ended
// the query. Rounds must match.
//
// The blocks recorded with the i8 screening codec went with it (PR 29);
// the screened=0 and quantize=none tokens left the rest.
//
// Regenerate (only when an answer is meant to change):
// go test ./internal/core -run TestPairsGolden -update-pairs-golden
var updatePairsGolden = flag.Bool("update-pairs-golden", false,
	"rewrite testdata/pairs.golden from the current code")

const pairsGoldenPath = "testdata/pairs.golden"

func evenIDs(id int32) bool { return id%2 == 0 }

const pairsGoldenStats = "stats rounds=%d enumerated=%d verified=%d pdc=%d\n"

// renderPairs is one golden block: the statistics line, then one line
// per pair with the distance as its IEEE-754 bits.
func renderPairs(st CPStats, pairs []Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, pairsGoldenStats,
		st.Rounds, st.Enumerated, st.Verified, st.ProjectedDistComps)
	for _, p := range pairs {
		fmt.Fprintf(&b, "pair %d %d %016x\n", p.I, p.J, math.Float64bits(p.Dist))
	}
	return b.String()
}

func TestPairsGolden(t *testing.T) {
	ctx := context.Background()
	const k = 20
	type goldenCase struct {
		name    string
		block   string
		sharded bool // a vector query over shards > 1: the stated exceptions apply
	}
	var cases []goldenCase

	filters := []struct {
		name string
		fn   func(int32) bool
	}{{"nil", nil}, {"even", evenIDs}}

	// Unclustered Gaussian rows: the projected distances discriminate
	// poorly, so the matrix reaches the budget stop (default budget,
	// no filter), the confidence-interval stop (budget 500) and the
	// filter's skipped candidates; the alpha1 rows at the end shrink the
	// projected radius until the query needs a second round.
	rng := rand.New(rand.NewSource(71))
	points := make([][]float64, 600)
	for i := range points {
		points[i] = make([]float64, 32)
		for j := range points[i] {
			points[i][j] = rng.NormFloat64()
		}
	}
	for _, m := range []metric.Kind{metric.L2, metric.Cosine} {
		for _, shards := range []int{1, 3} {
			e, err := BuildEngine(points, Config{Seed: 11, Metric: m, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			type knobs struct {
				budget int
				alpha1 float64
			}
			runs := []knobs{{0, 0}, {500, 0}}
			if m == metric.L2 {
				runs = append(runs, knobs{2, 0.9999})
			}
			for _, f := range filters {
				for _, kn := range runs {
					name := fmt.Sprintf("metric=%v shards=%d filter=%s budget=%d alpha1=%v", m, shards, f.name, kn.budget, kn.alpha1)
					var st CPStats
					pairs, err := e.SearchPairs(ctx, k, SearchOptions{Filter: f.fn, Budget: kn.budget, Alpha1: kn.alpha1, PairStats: &st})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(pairs) != k {
						t.Fatalf("%s: %d pairs, want %d", name, len(pairs), k)
					}
					cases = append(cases, goldenCase{name, renderPairs(st, pairs), shards > 1})
				}
			}
		}
	}

	sets := metricTestSets(40, 4, 32, 73)
	for _, shards := range []int{1, 3} {
		e, err := BuildSetsEngine(sets, Config{Seed: 13, Metric: metric.Jaccard, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range filters {
			for _, budget := range []int{0, 25} {
				name := fmt.Sprintf("metric=jaccard shards=%d filter=%s budget=%d", shards, f.name, budget)
				var st CPStats
				pairs, err := e.SearchPairs(ctx, k, SearchOptions{Filter: f.fn, Budget: budget, PairStats: &st})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(pairs) == 0 {
					t.Fatalf("%s: no pairs", name)
				}
				cases = append(cases, goldenCase{name, renderPairs(st, pairs), false})
			}
		}
	}

	if *updatePairsGolden {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "case %s\n%s", c.name, c.block)
		}
		if err := os.WriteFile(pairsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pairsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, chunk := range strings.Split(string(raw), "case ")[1:] {
		name, block, _ := strings.Cut(chunk, "\n")
		want[name] = block
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d cases, the test produces %d", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in %s", c.name, pairsGoldenPath)
			continue
		}
		if c.sharded {
			// The stated exceptions: fold them away, then compare verbatim.
			var got, rec CPStats
			gotStats, gotPairs, _ := strings.Cut(c.block, "\n")
			recStats, _, _ := strings.Cut(w, "\n")
			scan := func(line string, st *CPStats) {
				if _, err := fmt.Sscanf(line+"\n", pairsGoldenStats,
					&st.Rounds, &st.Enumerated, &st.Verified, &st.ProjectedDistComps); err != nil {
					t.Fatalf("%s: %q: %v", c.name, line, err)
				}
			}
			scan(gotStats, &got)
			scan(recStats, &rec)
			if got.Enumerated <= rec.Enumerated && got.Verified <= rec.Verified &&
				got.ProjectedDistComps <= rec.ProjectedDistComps {
				got.Enumerated, got.Verified, got.ProjectedDistComps = rec.Enumerated, rec.Verified, rec.ProjectedDistComps
			}
			c.block = fmt.Sprintf(pairsGoldenStats, got.Rounds, got.Enumerated, got.Verified, got.ProjectedDistComps) + gotPairs
		}
		if w != c.block {
			t.Errorf("%s:\n got:\n%s want:\n%s", c.name, c.block, w)
		}
	}
}
