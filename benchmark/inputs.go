package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/store"
)

// The query every workload issues: (c=1.5, k=50)-ANN, the paper's
// default operating point (Table 4 reports k=50).
const (
	queryK = 50
	queryC = 1.5
)

// buildSeed is the index build seed (projection and pivot sampling).
// It is a constant so that -seed varies the inputs only: the program
// under test sees different data, never a different configuration.
const buildSeed = 7

// driver names how a workload calls the system.
type driver int

const (
	driveSearch driver = iota // one caller of Index.Search, closed loop
	driveBatch                // one caller of Index.SearchBatch, closed loop
	driveServe                // HTTP: closed-loop reader + open-loop mutator
)

// batchSize is the SearchBatch slice length of the batch workload.
const batchSize = 256

// mutationRate is the open-loop mutation schedule of the serve
// workload, in operations per second.
const mutationRate = 200

// workload is one set of inputs plus the way they are driven. The
// sizes and the reason for each are in README.md.
type workload struct {
	name        string
	spec        dataset.Spec
	drive       driver
	shards      int
	recallFloor float64
}

var workloads = []workload{
	{name: "knn-d128", spec: dataset.Spec{N: 20000, D: 128, SubspaceDim: 12, RCTarget: 2.0},
		drive: driveSearch, shards: 1, recallFloor: 0.85},
	{name: "knn-d768", spec: dataset.Spec{N: 8000, D: 768, SubspaceDim: 16, RCTarget: 2.5},
		drive: driveSearch, shards: 1, recallFloor: 0.95},
	{name: "batch-d128", spec: dataset.Spec{N: 20000, D: 128, SubspaceDim: 12, RCTarget: 2.0},
		drive: driveBatch, shards: 1, recallFloor: 0.85},
	{name: "serve-churn", spec: dataset.Spec{N: 5000, D: 64, SubspaceDim: 8, RCTarget: 2.2},
		drive: driveServe, shards: 2, recallFloor: 0.80},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the input counts that do not depend on the workload.
type sizes struct {
	loopQueries  int // queries cycled through the measured window
	fixedQueries int // queries scored for recall and replayed in the trace
	layerOps     int // operations per per-layer micro-measurement
}

var (
	fullSizes  = sizes{loopQueries: 2000, fixedQueries: 500, layerOps: 400}
	quickSizes = sizes{loopQueries: 200, fixedQueries: 50, layerOps: 40}
)

// inputs is everything a run feeds the program under test. All of it
// is a function of (workload, seed, sizes) and nothing else.
type inputs struct {
	points [][]float64  // the rows to index; views into store
	store  *store.Store // the same rows, contiguous
	loop   [][]float64  // cycled through the measured window
	fixed  [][]float64  // scored against brute force; replayed in the trace
	// The mutation schedule: op i is an insert of inserts[i/2] when i
	// is even and a delete of the live id picks[i/2] selects when odd.
	inserts [][]float64
	picks   []uint64
	digest  string
}

// mutations is the length of the schedule in operations.
func (in *inputs) mutations() int { return 2 * len(in.inserts) }

// subSeed spreads one -seed over independent generator streams, so
// that seed n's queries are not seed n+1's dataset.
func subSeed(seed int64, stream int64) int64 { return seed*7919 + stream }

// generate builds the inputs of one run. pairs is the number of
// insert/delete pairs in the mutation schedule.
func generate(w workload, seed int64, sz sizes, pairs int) (*inputs, error) {
	spec := w.spec
	spec.Name = w.name
	spec.Seed = subSeed(seed, 0)
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	in := &inputs{
		points:  ds.Points,
		store:   ds.Store,
		loop:    ds.Queries(sz.loopQueries, subSeed(seed, 1)),
		fixed:   ds.Queries(sz.fixedQueries, subSeed(seed, 2)),
		inserts: ds.Queries(pairs, subSeed(seed, 3)), // perturbed stored points
		picks:   make([]uint64, pairs),
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	for i := range in.picks {
		in.picks[i] = rng.Uint64()
	}
	in.digest = in.computeDigest()
	return in, nil
}

// computeDigest hashes every generated byte, so two runs can show they
// fed the program the same inputs.
func (in *inputs) computeDigest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rows := func(rs [][]float64) {
		put(uint64(len(rs)))
		for _, r := range rs {
			for _, v := range r {
				put(math.Float64bits(v))
			}
		}
	}
	rows(in.points)
	rows(in.loop)
	rows(in.fixed)
	rows(in.inserts)
	for _, p := range in.picks {
		put(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
