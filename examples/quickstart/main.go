// Quickstart: build a PM-LSH index over random high-dimensional points,
// answer a (c,k)-ANN request through the options-driven Search API,
// then exercise the mutation lifecycle — delete the returned neighbors,
// watch them vanish from the next query, and re-insert one under a
// fresh id.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	pmlsh "repro"
)

func main() {
	const (
		n = 10000 // points
		d = 128   // dimensions
		k = 5     // neighbors
		c = 1.5   // approximation ratio
	)

	// A toy dataset: Gaussian points around a handful of centers.
	rng := rand.New(rand.NewSource(1))
	centers := make([][]float64, 16)
	for i := range centers {
		centers[i] = randVec(rng, d, 10)
	}
	data := make([][]float64, n)
	for i := range data {
		center := centers[rng.Intn(len(centers))]
		p := make([]float64, d)
		for j := range p {
			p[j] = center[j] + rng.NormFloat64()
		}
		data[i] = p
	}

	// Build the index with the default parameters: s = 5 PM-tree pivots
	// and α1 = 1/e as in the paper, and m = 24 hash functions, the
	// default from 64 dimensions on (the paper's 15 below).
	index, err := pmlsh.Build(data, pmlsh.Config{Seed: 42})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("indexed %d points in %d dimensions (projected to %d)\n",
		index.Len(), index.Dim(), index.M())

	// Query near one of the data points.
	query := append([]float64(nil), data[1234]...)
	query[0] += 0.25

	// One Search request: per-query ratio and a stats sink travel as
	// functional options; the context could carry a deadline.
	ctx := context.Background()
	var stats pmlsh.QueryStats
	neighbors, err := index.Search(ctx, query, k,
		pmlsh.WithRatio(c), pmlsh.WithStats(&stats))
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("\n(c=%.1f, k=%d)-ANN results:\n", c, k)
	for i, nb := range neighbors {
		fmt.Printf("  %d. point %-6d distance %.4f\n", i+1, nb.ID, nb.Dist)
	}
	fmt.Printf("\nquery work: %d range-query rounds, %d points verified (%.1f%% of the dataset)\n",
		stats.Rounds, stats.Verified, 100*float64(stats.Verified)/float64(n))

	// The index is mutable: Delete retires points in place (no rebuild),
	// and queries running concurrently never see them. Drop every
	// neighbor just returned and keep its vector for later.
	deleted := make(map[int32][]float64, len(neighbors))
	for _, nb := range neighbors {
		deleted[nb.ID] = append([]float64(nil), data[nb.ID]...)
		if err := index.Delete(nb.ID); err != nil {
			log.Fatalf("delete: %v", err)
		}
	}
	fmt.Printf("\ndeleted the %d results: %d ids assigned, %d live\n",
		len(neighbors), index.Len(), index.LiveLen())

	neighbors, err = index.Search(ctx, query, k, pmlsh.WithRatio(c))
	if err != nil {
		log.Fatalf("query after delete: %v", err)
	}
	fmt.Println("same query over the survivors:")
	for i, nb := range neighbors {
		if _, gone := deleted[nb.ID]; gone {
			log.Fatalf("deleted point %d resurfaced", nb.ID)
		}
		fmt.Printf("  %d. point %-6d distance %.4f\n", i+1, nb.ID, nb.Dist)
	}

	// Re-insert one deleted vector: it comes back under a fresh id (ids
	// are never reused) and immediately wins the query again.
	for oldID, p := range deleted {
		newID, err := index.Insert(p)
		if err != nil {
			log.Fatalf("insert: %v", err)
		}
		fmt.Printf("\nre-inserted former point %d as id %d\n", oldID, newID)
		break
	}
	neighbors, err = index.Search(ctx, query, 1, pmlsh.WithRatio(c))
	if err != nil {
		log.Fatalf("query after re-insert: %v", err)
	}
	fmt.Printf("nearest neighbor now: point %d at distance %.4f\n",
		neighbors[0].ID, neighbors[0].Dist)
}

func randVec(rng *rand.Rand, d int, scale float64) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}
