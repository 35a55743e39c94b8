// Command pmlshload generates sustained traffic against a running
// `pmlsh serve` endpoint and reports throughput, latency percentiles
// and achieved recall against an in-process brute-force oracle.
//
// The server must be serving an index built from the same dataset dump
// (ids follow build order), e.g.:
//
//	pmlsh serve -data vectors.f64 -shards 4 -addr :8080 &
//	pmlshload -url http://localhost:8080 -data vectors.f64 \
//	    -rate 200 -duration 30s -read 0.9 -compact-every 10s
//
// Arrivals are open-loop: the target rate is offered regardless of
// response latency, so an overloaded server shows up as tail latency
// (and, past the queue depth, shed operations) rather than a quietly
// reduced request rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/metric"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "pmlshload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pmlshload", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "server base URL")
	dataPath := fs.String("data", "", "dataset dump the served index was built from (datagen format); seeds the recall oracle")
	rate := fs.Float64("rate", 100, "target arrival rate, operations/second")
	duration := fs.Duration("duration", 30*time.Second, "run length")
	workers := fs.Int("workers", 8, "concurrent request slots")
	k := fs.Int("k", 10, "neighbors per search")
	read := fs.Float64("read", 0.9, "fraction of operations that are searches")
	delShare := fs.Float64("delshare", 0.5, "fraction of mutations that are deletes")
	compactEvery := fs.Duration("compact-every", 0, "POST /v1/compact on this period (0 = never)")
	checkpointEvery := fs.Duration("checkpoint-every", 0, "recall/latency checkpoint period (0 = duration/4)")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	if *dataPath == "" {
		return fmt.Errorf("pmlshload requires -data (the dump the server was built from)")
	}
	data, err := dataset.ReadDump(*dataPath)
	if err != nil {
		return err
	}
	mk, err := serverMetric(*url)
	if err != nil {
		return err
	}
	fmt.Printf("server metric: %v (oracle scores recall in it)\n", mk)
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Metric:          mk,
		BaseURL:         *url,
		Rate:            *rate,
		Duration:        *duration,
		Workers:         *workers,
		K:               *k,
		ReadFraction:    *read,
		DeleteShare:     *delShare,
		CompactEvery:    *compactEvery,
		CheckpointEvery: *checkpointEvery,
		Seed:            *seed,
		Data:            data,
		OnCheckpoint: func(cp loadgen.Checkpoint) {
			fmt.Printf("checkpoint %8v: searches=%-6d recall@%d=%.3f window-p99=%v live=%d\n",
				cp.At.Round(time.Millisecond), cp.Searches, *k, cp.Recall,
				cp.P99.Round(time.Microsecond), cp.Live)
		},
	})
	if err != nil {
		return err
	}
	printReport(rep)
	if rep.Server5xx > 0 {
		return fmt.Errorf("%d responses were 5xx", rep.Server5xx)
	}
	return nil
}

// serverMetric asks GET /v1/info which distance metric the served
// index answers in, so the recall oracle scores with the same one.
func serverMetric(base string) (metric.Kind, error) {
	resp, err := http.Get(base + "/v1/info")
	if err != nil {
		return 0, fmt.Errorf("fetching /v1/info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/info: HTTP %d", resp.StatusCode)
	}
	var info struct {
		Metric string `json:"metric"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("decoding /v1/info: %w", err)
	}
	mk, err := metric.Parse(info.Metric)
	if err != nil {
		return 0, fmt.Errorf("server reports unsupported metric: %w", err)
	}
	return mk, nil
}

func printReport(rep *loadgen.Report) {
	fmt.Printf("\nduration:    %v\n", rep.Duration.Round(time.Millisecond))
	fmt.Printf("sent:        %d (dropped %d)\n", rep.Sent, rep.Dropped)
	fmt.Printf("completed:   %d (%.0f req/s), transport errors %d\n",
		rep.Completed, rep.AchievedQPS, rep.TransportErrors)
	fmt.Printf("latency:     p50=%v p95=%v p99=%v\n",
		rep.P50.Round(time.Microsecond), rep.P95.Round(time.Microsecond), rep.P99.Round(time.Microsecond))
	fmt.Printf("recall:      %.3f over %d searches\n", rep.MeanRecall, rep.Searches)
	routes := make([]string, 0, len(rep.ByRoute))
	for r := range rep.ByRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		fmt.Printf("  %-18s %d\n", r, rep.ByRoute[r])
	}
	codes := make([]int, 0, len(rep.ByCode))
	for c := range rep.ByCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Printf("  HTTP %d           %d\n", c, rep.ByCode[c])
	}
	fmt.Printf("5xx:         %d\n", rep.Server5xx)
}
