// Command pmlsh builds, persists and queries PM-LSH indexes over raw
// float64 dataset dumps (the format cmd/datagen exports: two int64
// headers n and d followed by n·d little-endian float64 values).
//
// Usage:
//
//	pmlsh build -data vectors.f64 -index out.pmlsh [-m 15] [-pivots 5] [-shards 4] [-metric l2|cosine|ip]
//	pmlsh query -index out.pmlsh -k 10 -c 1.5 -point "0.1,0.2,..." [-alpha1 0.2] [-budget 500] [-timeout 1s]
//	pmlsh cp    -index out.pmlsh -k 10 -c 1.5 [-timeout 1s]
//	pmlsh bench -index out.pmlsh -k 10 -c 1.5 -queries 100 [-par] [-timeout 10s] [-cpuprofile cpu.out] [-memprofile mem.out]
//	pmlsh bench -data vectors.f64 -shards 4 ...   (build in-process; query rows of the dump)
//	pmlsh churn -data vectors.f64 [-ops 2000] [-delfrac 0.4] [-k 10] [-shards 4]
//	pmlsh info  -index out.pmlsh
//	pmlsh serve -data vectors.f64 -shards 4 -addr :8080 [-drain-timeout 15s] [-save out.pmlsh]
//	pmlsh serve -load out.pmlsh -addr :8080
//
// Query subcommands run through the request API (Search, SearchBatch,
// SearchPairs): -alpha1/-budget map to the per-query options, and
// -timeout demonstrates cancellation — the query stops doing tree work
// when the deadline fires and the command reports the context error.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	pmlsh "repro"
	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/metric"
)

// queryCtx returns the request context for a subcommand: Background,
// or a deadline-bearing child when -timeout is set.
func queryCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "cp":
		err = runCP(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	case "churn":
		err = runChurn(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmlsh: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pmlsh <build|query|cp|bench|churn|info|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'pmlsh <subcommand> -h' for flags")
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dataPath := fs.String("data", "", "raw float64 dump (datagen format)")
	indexPath := fs.String("index", "", "output index file")
	m := fs.Int("m", 0, "hash functions (0 = 24 from 64 dimensions under l2 or cosine, else 15)")
	pivots := fs.Int("pivots", 0, "PM-tree pivots (0 = 5)")
	seed := fs.Int64("seed", 1, "build seed")
	shards := fs.Int("shards", 0, "shard count for snapshot-isolated serving (0 or 1 = single shard; persisted in the index file)")
	metricFlag := fs.String("metric", "l2", "distance metric: l2, cosine or ip (persisted in the index file)")
	fs.Parse(args)
	if *dataPath == "" || *indexPath == "" {
		return fmt.Errorf("build requires -data and -index")
	}
	mk, err := pmlsh.ParseMetric(*metricFlag)
	if err != nil {
		return err
	}
	if mk == pmlsh.MetricJaccard {
		return fmt.Errorf("build indexes vectors; the jaccard metric indexes sets (use the library's BuildSets)")
	}
	data, err := dataset.ReadDump(*dataPath)
	if err != nil {
		return err
	}
	start := time.Now()
	ix, err := pmlsh.Build(data, pmlsh.Config{M: *m, NumPivots: *pivots, Seed: *seed, Shards: *shards, Metric: mk})
	if err != nil {
		return err
	}
	fmt.Printf("built index over %d×%d (%d shard(s)) in %v (gomaxprocs %d)\n", ix.Len(), ix.Dim(),
		ix.Shards(), time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	f, err := os.Create(*indexPath)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := ix.WriteTo(f)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.1f MB)\n", *indexPath, float64(n)/1e6)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	k := fs.Int("k", 10, "neighbors")
	c := fs.Float64("c", 1.5, "approximation ratio")
	alpha1 := fs.Float64("alpha1", 0, "per-query confidence-interval width α1 (0 = index default)")
	budget := fs.Int("budget", 0, "verification-budget override (0 = derived βn+k)")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none)")
	pointStr := fs.String("point", "", "comma-separated query coordinates")
	fs.Parse(args)
	if *indexPath == "" || *pointStr == "" {
		return fmt.Errorf("query requires -index and -point")
	}
	ix, err := loadIndex(*indexPath)
	if err != nil {
		return err
	}
	q, err := parsePoint(*pointStr)
	if err != nil {
		return err
	}
	ctx, cancel := queryCtx(*timeout)
	defer cancel()
	var st pmlsh.QueryStats
	res, err := ix.Search(ctx, q, *k,
		pmlsh.WithRatio(*c), pmlsh.WithAlpha1(*alpha1), pmlsh.WithBudget(*budget),
		pmlsh.WithStats(&st))
	if err != nil {
		return err
	}
	for i, nb := range res {
		fmt.Printf("%2d. id=%-8d dist=%.6f\n", i+1, nb.ID, nb.Dist)
	}
	fmt.Printf("rounds=%d verified=%d projected-dist-comps=%d\n",
		st.Rounds, st.Verified, st.ProjectedDistComps)
	return nil
}

// runCP answers a (c,k)-closest-pair query over the indexed dataset:
// the k pairs of indexed points that are, within factor c, the closest
// in the whole collection (near-duplicate detection, self-join).
func runCP(args []string) error {
	fs := flag.NewFlagSet("cp", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	k := fs.Int("k", 10, "number of closest pairs")
	c := fs.Float64("c", 1.5, "approximation ratio")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none)")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("cp requires -index")
	}
	ix, err := loadIndex(*indexPath)
	if err != nil {
		return err
	}
	ctx, cancel := queryCtx(*timeout)
	defer cancel()
	var st pmlsh.CPStats
	start := time.Now()
	pairs, err := ix.SearchPairs(ctx, *k, pmlsh.WithRatio(*c), pmlsh.WithPairStats(&st))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	printPairs(pairs)
	fmt.Printf("enumerated=%d verified=%d projected-dist-comps=%d, wall time %v\n",
		st.Enumerated, st.Verified, st.ProjectedDistComps, elapsed.Round(time.Microsecond))
	return nil
}

func printPairs(pairs []pmlsh.Pair) {
	for i, p := range pairs {
		fmt.Printf("%2d. (%d, %d) dist=%.6f\n", i+1, p.I, p.J, p.Dist)
	}
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	dataPath := fs.String("data", "", "raw float64 dump to build an in-process index from (alternative to -index)")
	shards := fs.Int("shards", 0, "shard count when building from -data (0 or 1 = single shard)")
	k := fs.Int("k", 10, "neighbors")
	c := fs.Float64("c", 1.5, "approximation ratio")
	queries := fs.Int("queries", 100, "number of queries: rows of the -data dump, or N(0,1) vectors with -index (no rows to sample)")
	seed := fs.Int64("seed", 1, "query sampling seed (and build seed with -data)")
	par := fs.Bool("par", false, "answer the query set with SearchBatch (parallel worker pool) and report aggregate QPS")
	timeout := fs.Duration("timeout", 0, "deadline for the whole query loop (0 = none)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the query loop to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the query loop")
	fs.Parse(args)
	var ix *pmlsh.Index
	var data [][]float64
	var err error
	switch {
	case *indexPath != "" && *dataPath != "":
		return fmt.Errorf("bench takes -index or -data, not both")
	case *indexPath != "":
		ix, err = loadIndex(*indexPath)
	case *dataPath != "":
		if data, err = dataset.ReadDump(*dataPath); err == nil {
			ix, err = pmlsh.Build(data, pmlsh.Config{Seed: *seed, Shards: *shards})
		}
	default:
		return fmt.Errorf("bench requires -index or -data")
	}
	if err != nil {
		return err
	}
	// The memprofile defer is registered first so that (LIFO) it runs
	// AFTER StopCPUProfile: the GC and heap serialization must not be
	// sampled into the CPU profile.
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmlsh: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pmlsh: memprofile: %v\n", err)
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	qs := benchQueries(data, ix.Dim(), *queries, *seed)
	ctx, cancel := queryCtx(*timeout)
	defer cancel()
	if *par {
		stats := make([]pmlsh.QueryStats, len(qs))
		start := time.Now()
		if _, err := ix.SearchBatch(ctx, qs, *k,
			pmlsh.WithRatio(*c), pmlsh.WithBatchStats(stats)); err != nil {
			return err
		}
		elapsed := time.Since(start)
		var pdc, verified int64
		for _, st := range stats {
			pdc += st.ProjectedDistComps
			verified += int64(st.Verified)
		}
		fmt.Printf("%d queries (batch, %d workers), k=%d, c=%.2f\n",
			len(qs), runtime.GOMAXPROCS(0), *k, *c)
		fmt.Printf("wall time: %v\n", elapsed.Round(time.Microsecond))
		fmt.Printf("aggregate: %.0f queries/s\n", float64(len(qs))/elapsed.Seconds())
		fmt.Printf("mean projected dist comps: %.0f/query (exact per query)\n",
			float64(pdc)/float64(len(qs)))
		fmt.Printf("mean verified: %.0f points/query\n", float64(verified)/float64(len(qs)))
		return nil
	}
	start := time.Now()
	var verified int64
	var st pmlsh.QueryStats
	for _, q := range qs {
		if _, err := ix.Search(ctx, q, *k, pmlsh.WithRatio(*c), pmlsh.WithStats(&st)); err != nil {
			return err
		}
		verified += int64(st.Verified)
	}
	elapsed := time.Since(start)
	fmt.Printf("%d queries, k=%d, c=%.2f\n", len(qs), *k, *c)
	fmt.Printf("mean latency: %v\n", (elapsed / time.Duration(len(qs))).Round(time.Microsecond))
	fmt.Printf("mean verified: %.0f points/query\n", float64(verified)/float64(len(qs)))
	return nil
}

// benchQueries draws bench's n queries with the given seed: rows of the
// dump the index was built from (self-queries, so they lie where the
// data does), or — for a loaded index, which has no rows to sample —
// N(0,1) vectors of dimension dim, far from data that is not zero-mean
// and unit-scale.
func benchQueries(data [][]float64, dim, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		if data != nil {
			qs[i] = data[rng.Intn(len(data))]
			continue
		}
		qs[i] = make([]float64, dim)
		for j := range qs[i] {
			qs[i][j] = rng.NormFloat64()
		}
	}
	return qs
}

// runChurn drives a mutable-serving workload over a dataset dump: it
// builds an index over the dump, then interleaves Deletes of random
// live points with Inserts of perturbed copies, measuring KNN recall
// against an exact scan of the live set at regular checkpoints — the
// operational proof that the index keeps answering correctly while it
// mutates. A final Compact and checkpoint show the rebuilt state.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	dataPath := fs.String("data", "", "raw float64 dump (datagen format)")
	ops := fs.Int("ops", 2000, "mutation operations to run")
	delFrac := fs.Float64("delfrac", 0.4, "probability a mutation is a Delete (rest are Inserts)")
	k := fs.Int("k", 10, "neighbors per checkpoint query")
	c := fs.Float64("c", 1.5, "approximation ratio")
	queries := fs.Int("queries", 20, "checkpoint queries")
	checkpoints := fs.Int("checkpoints", 4, "number of recall checkpoints")
	seed := fs.Int64("seed", 1, "workload seed")
	shards := fs.Int("shards", 0, "shard count (0 or 1 = single shard)")
	fs.Parse(args)
	if *dataPath == "" {
		return fmt.Errorf("churn requires -data")
	}
	if *ops < 1 || *queries < 1 || *checkpoints < 1 {
		return fmt.Errorf("churn requires -ops, -queries and -checkpoints >= 1")
	}
	if *delFrac < 0 || *delFrac > 1 {
		return fmt.Errorf("-delfrac must be in [0,1], got %v", *delFrac)
	}
	data, err := dataset.ReadDump(*dataPath)
	if err != nil {
		return err
	}
	ix, err := pmlsh.Build(data, pmlsh.Config{Seed: *seed, Shards: *shards})
	if err != nil {
		return err
	}
	dim := ix.Dim()
	rng := rand.New(rand.NewSource(*seed))

	// The oracle tracks the live set so recall has exact ground truth.
	live := make(map[int32][]float64, len(data))
	liveIDs := make([]int32, 0, len(data))
	for i, p := range data {
		live[int32(i)] = p
		liveIDs = append(liveIDs, int32(i))
	}
	// removeAt swap-removes liveIDs[i]; the caller already drew i, so
	// no scan is needed.
	removeAt := func(i int) {
		delete(live, liveIDs[i])
		liveIDs[i] = liveIDs[len(liveIDs)-1]
		liveIDs = liveIDs[:len(liveIDs)-1]
	}

	checkpoint := func(label string) error {
		if len(live) == 0 {
			fmt.Printf("%s: live=0, nothing to query\n", label)
			return nil
		}
		kk := *k
		if kk > len(live) {
			kk = len(live)
		}
		var recallSum float64
		var elapsed time.Duration
		for qi := 0; qi < *queries; qi++ {
			q := live[liveIDs[rng.Intn(len(liveIDs))]]
			start := time.Now()
			got, err := ix.Search(context.Background(), q, kk, pmlsh.WithRatio(*c))
			elapsed += time.Since(start)
			if err != nil {
				return err
			}
			exact := lscan.ExactKNN(live, q, kk, metric.L2)
			hit := 0
			for _, nb := range got {
				if _, ok := live[nb.ID]; !ok {
					return fmt.Errorf("query returned deleted id %d", nb.ID)
				}
				if exact[nb.ID] {
					hit++
				}
			}
			recallSum += float64(hit) / float64(kk)
		}
		fmt.Printf("%s: ids=%d live=%d recall@%d=%.3f mean-latency=%v\n",
			label, ix.Len(), ix.LiveLen(), kk, recallSum/float64(*queries),
			(elapsed / time.Duration(*queries)).Round(time.Microsecond))
		return nil
	}

	if err := checkpoint("start"); err != nil {
		return err
	}
	every := *ops / *checkpoints
	if every < 1 {
		every = 1
	}
	for op := 1; op <= *ops; op++ {
		if rng.Float64() < *delFrac && len(liveIDs) > 1 {
			i := rng.Intn(len(liveIDs))
			if err := ix.Delete(liveIDs[i]); err != nil {
				return err
			}
			removeAt(i)
		} else {
			base := data[rng.Intn(len(data))]
			p := make([]float64, dim)
			for j := range p {
				p[j] = base[j] + 0.05*rng.NormFloat64()
			}
			id, err := ix.Insert(p)
			if err != nil {
				return err
			}
			live[id] = p
			liveIDs = append(liveIDs, id)
		}
		if op%every == 0 {
			if err := checkpoint(fmt.Sprintf("after %d ops", op)); err != nil {
				return err
			}
		}
	}
	start := time.Now()
	if err := ix.Compact(); err != nil {
		return err
	}
	fmt.Printf("compact took %v\n", time.Since(start).Round(time.Millisecond))
	return checkpoint("after compact")
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file")
	fs.Parse(args)
	if *indexPath == "" {
		return fmt.Errorf("info requires -index")
	}
	ix, err := loadIndex(*indexPath)
	if err != nil {
		return err
	}
	info := ix.Info()
	fmt.Printf("ids:        %d\n", info.IDs)
	fmt.Printf("live:       %d\n", info.Live)
	fmt.Printf("dead rows:  %d\n", info.Dead)
	fmt.Printf("dimensions: %d\n", info.Dim)
	fmt.Printf("projected:  %d\n", info.M)
	fmt.Printf("shards:     %d\n", info.Shards)
	fmt.Printf("metric:     %v\n", info.Metric)
	if info.Metric == pmlsh.MetricJaccard {
		// No projected space, no χ² interval — nothing more to print.
		return nil
	}
	p, err := ix.DeriveParams(1.5)
	if err != nil {
		return err
	}
	fmt.Printf("t=%.4f α2=%.4f β=%.4f (at c=1.5)\n", p.T, p.Alpha2, p.Beta)
	return nil
}

func loadIndex(path string) (*pmlsh.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pmlsh.Load(bufio.NewReaderSize(f, 1<<20))
}

func parsePoint(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
