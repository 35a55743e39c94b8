package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/wal"
)

// badVectors are the vectors no index can hold or answer for: ordinary
// components around one NaN or one infinity, and the valid-JSON floats
// ±1e308, whose norm and projection overflow.
func badVectors(dim int) map[string][]float64 {
	alternating := func(v float64) []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = v
			if i%2 == 1 {
				p[i] = -v
			}
		}
		return p
	}
	out := map[string][]float64{"1e308": alternating(1e308)}
	for name, v := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		out[name] = alternating(1)
		out[name][dim/2] = v
	}
	return out
}

// TestNonFiniteVectorsRejected pins the boundary for all three vector
// metrics: a vector with a NaN or infinite component, or one so large
// that nothing about it is finite, is refused by Build, BuildEngine,
// Insert, Search, SearchBatch and SearchBall with an ordinary error,
// promptly, and leaves the index as it was — the next ordinary insert
// gets the next id. (Before, the insert panicked inside the tree and
// left the engine's standby half with an orphan row, and the search
// never left its radius loop.)
func TestNonFiniteVectorsRejected(t *testing.T) {
	data := clusteredData(60, 6, 3, 101)
	for _, m := range []metric.Kind{metric.L2, metric.Cosine, metric.InnerProduct} {
		for name, bad := range badVectors(6) {
			label := m.String() + " " + name
			withBad := append(append([][]float64{}, data[:10]...), bad)
			if _, err := Build(withBad, Config{Seed: 1, Metric: m}); err == nil {
				t.Fatalf("%s: Build accepted the vector", label)
			}
			if _, err := BuildEngine(withBad, Config{Seed: 1, Metric: m, Shards: 2}); err == nil {
				t.Fatalf("%s: BuildEngine accepted the vector", label)
			}

			e, err := BuildEngine(data, Config{Seed: 1, Metric: m, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			before := e.Info()
			if _, err := e.Insert(bad); err == nil {
				t.Fatalf("%s: Insert accepted the vector", label)
			}
			if after := e.Info(); after.IDs != before.IDs || after.Live != before.Live ||
				after.TailFraction[0] != 0 || after.TailFraction[1] != 0 {
				t.Fatalf("%s: a rejected insert changed the engine: %+v -> %+v", label, before, after)
			}
			// The rejected point claimed no round-robin slot: ids stay
			// consecutive.
			for i := 0; i < 3; i++ {
				if id, err := e.Insert(data[i]); err != nil || id != int32(60+i) {
					t.Fatalf("%s: ordinary insert %d after the rejected one: id %d, err %v", label, i, id, err)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			start := time.Now()
			if _, err := e.Search(ctx, bad, 3, SearchOptions{}); err == nil {
				t.Fatalf("%s: Search answered", label)
			} else if ctx.Err() != nil {
				t.Fatalf("%s: Search ran into the deadline: %v", label, err)
			}
			if _, err := e.SearchBatch(ctx, [][]float64{data[0], bad}, 3, SearchOptions{}); err == nil {
				t.Fatalf("%s: SearchBatch answered", label)
			}
			if m != metric.InnerProduct { // no ball queries under inner product
				if _, err := e.SearchBall(ctx, bad, 1, SearchOptions{}); err == nil {
					t.Fatalf("%s: SearchBall answered", label)
				}
			}
			cancel()
			if took := time.Since(start); took > time.Second {
				t.Fatalf("%s: rejecting three queries took %v", label, took)
			}
		}
	}

	// A ratio that is not a number is refused like one that is not above
	// 1; it too used to spin the radius loop.
	ix, err := Build(data, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(context.Background(), data[0], 3, SearchOptions{C: math.NaN()}); err == nil {
		t.Fatal("Search accepted C = NaN")
	}
}

// TestRejectedInsertIsNeverLogged: whatever the apply would refuse is
// refused before the write-ahead log sees it, so the state directory
// reopens with every acknowledged insert around the rejected one, under
// consecutive ids. (Before, the rejected point was logged first, the
// call answered "logged but not applied", and every later OpenDurable
// failed replaying it.)
func TestRejectedInsertIsNeverLogged(t *testing.T) {
	data := clusteredData(30, 4, 2, 103)
	for _, tc := range []struct {
		m   metric.Kind
		bad []float64
	}{
		{metric.Cosine, []float64{0, 0, 0, 0}},             // no direction
		{metric.InnerProduct, []float64{1e3, 1e3, 1e3, 0}}, // longer than the build-time scale
		{metric.L2, []float64{1e308, -1e308, 1e308, -1e308}},
		{metric.L2, []float64{1, 2, 3}}, // wrong dimension
	} {
		e, err := BuildEngine(data, Config{Seed: 7, DistSampleSize: 64, Shards: 2, Metric: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		fs := wal.DirFS(t.TempDir())
		if err := e.EnableDurability(fs, wal.SyncPolicy{}); err != nil {
			t.Fatal(err)
		}
		first, err := e.Insert(data[3])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(tc.bad); err == nil {
			t.Fatalf("%v: insert of %v accepted", tc.m, tc.bad)
		} else if strings.Contains(err.Error(), "logged") {
			t.Fatalf("%v: the rejected insert reached the log: %v", tc.m, err)
		}
		second, err := e.Insert(data[4])
		if err != nil {
			t.Fatal(err)
		}
		if first != 30 || second != 31 {
			t.Fatalf("%v: acknowledged ids %d and %d, want 30 and 31", tc.m, first, second)
		}
		if st, _ := e.DurabilityStats(); st.Appended != 2 {
			t.Fatalf("%v: %d records appended for 2 acknowledged inserts", tc.m, st.Appended)
		}
		if err := e.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		e2, err := OpenDurable(fs, wal.SyncPolicy{})
		if err != nil {
			t.Fatalf("%v: reopening after a rejected insert: %v", tc.m, err)
		}
		if !e2.IsLive(first) || !e2.IsLive(second) || e2.Len() != 32 {
			t.Fatalf("%v: recovered engine has %d ids, %d live %v, %d live %v", tc.m, e2.Len(), first, e2.IsLive(first), second, e2.IsLive(second))
		}
		if id, err := e2.Insert(data[5]); err != nil || id != 32 {
			t.Fatalf("%v: insert after recovery: id %d, err %v", tc.m, id, err)
		}
		e2.CloseDurable()
	}
}
