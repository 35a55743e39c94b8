// Package minhash is a band-LSH index for Jaccard similarity over
// sets of uint64 tokens — the set-data backend behind the engine's
// Metric = Jaccard mode.
//
// Each indexed set gets a MinHash signature of k = b×r values (k hash
// functions, each keeping the minimum over the set's tokens). The
// signature is split into b bands of r consecutive values; each band
// is hashed with FNV-1a into a bucket key, and two sets become
// candidates when any band key collides. For sets with true Jaccard
// similarity s, each band matches with probability s^r, so
//
//	P(candidate) = 1 − (1 − s^r)^b
//
// which for the default 16×8 bands is ≈ 6.1% at s = 0.5, 61% at 0.7,
// 95% at 0.8 and 99.99% at 0.9 (TestClaimJaccardBandCurve) — an S-curve
// centered near (1/b)^(1/r) ≈ 0.71. Candidates are always rescored with
// the exact Jaccard similarity (sorted-set intersection), so a bucket
// collision can only add work, never a wrong answer; an optional
// similarity threshold then drops weak matches. Reported distances are 1 − J.
//
// Ids are assigned by a monotone counter and never reused, deletes
// tombstone in place, and Compact rebuilds the bucket maps over the
// live sets — the same lifecycle contract the vector index keeps, so
// the sharded engine, WAL durability and the serving layer run
// unchanged over this backend.
package minhash

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/vec"
)

// Default band layout: 16 bands × 8 rows = 128 hash functions.
const (
	DefaultBands = 16
	DefaultRows  = 8
)

// Config configures an Index.
type Config struct {
	// Bands and Rows set the band layout; the signature has
	// Bands×Rows minhash values. 0 selects the defaults (16×8).
	Bands, Rows int
	// Seed derives the hash functions. Indexes that must share
	// candidate buckets (the shards of one engine) must share a seed.
	Seed int64
	// Threshold, in (0,1], drops results whose exact Jaccard
	// similarity is below it. 0 keeps every rescored candidate.
	Threshold float64
}

func (c *Config) fillDefaults() error {
	if c.Bands == 0 {
		c.Bands = DefaultBands
	}
	if c.Rows == 0 {
		c.Rows = DefaultRows
	}
	if c.Bands < 1 || c.Rows < 1 {
		return fmt.Errorf("minhash: bands and rows must be >= 1 (got %d x %d)", c.Bands, c.Rows)
	}
	if c.Bands*c.Rows > 1<<16 {
		return fmt.Errorf("minhash: signature size %d exceeds 65536", c.Bands*c.Rows)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("minhash: threshold %v outside [0,1]", c.Threshold)
	}
	return nil
}

// Stats counts the work of one query.
type Stats struct {
	// Candidates is the number of distinct ids surfaced by band-bucket
	// collisions before rescoring.
	Candidates int
	// Verified is the number of exact Jaccard rescores performed.
	Verified int
}

// SearchOpt carries the per-query knobs shared with the vector engine.
type SearchOpt struct {
	// Filter restricts results to admitted ids.
	Filter func(id int32) bool
	// Budget caps exact rescores; 0 means rescore every candidate.
	Budget int
}

// Index is a MinHash band-LSH index. All methods are safe for
// concurrent use: queries share the read side of mu; Insert, Delete and
// Compact take turns on wmu and hold the write side of mu only for the
// moment their change lands — an insert or delete is microseconds, and
// Compact rebuilds its bucket tables under the read side, beside the
// queries, taking the write side just to swap them in. Bucket slices
// handed to readers (Buckets) are never edited in place: Insert appends
// past what a reader holds, Delete installs a shortened copy.
type Index struct {
	wmu sync.Mutex   // serializes the mutations
	mu  sync.RWMutex // guards everything below
	cfg Config

	// sets[id] is the sorted, deduplicated token set (nil = deleted;
	// ids are never reused). sigs[id] is its Bands×Rows signature.
	sets [][]uint64
	sigs [][]uint64
	// buckets[band][key] lists the live ids whose band hashed to key.
	buckets []map[uint64][]int32

	live        int
	dead        int
	compactions int
}

// New returns an empty index.
func New(cfg Config) (*Index, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	x := &Index{cfg: cfg}
	x.buckets = make([]map[uint64][]int32, cfg.Bands)
	for b := range x.buckets {
		x.buckets[b] = make(map[uint64][]int32)
	}
	return x, nil
}

// Build indexes the given sets; sets[i] gets id i. Input slices are
// not retained (each set is copied, sorted and deduplicated). Every
// set must be non-empty.
func Build(sets [][]uint64, cfg Config) (*Index, error) {
	x, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i, s := range sets {
		if _, err := x.Insert(s); err != nil {
			return nil, fmt.Errorf("minhash: set %d: %w", i, err)
		}
	}
	return x, nil
}

// Canonicalize returns set sorted ascending with duplicates removed,
// copying the input. It errors on an empty set — an empty set has no
// minhash signature and Jaccard with it is undefined under our
// convention.
func Canonicalize(set []uint64) ([]uint64, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("minhash: empty set")
	}
	s := append([]uint64(nil), set...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w], nil
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit permutation used both to derive per-function seeds
// and as the per-token hash.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a2c62a2fca17
	return z ^ (z >> 31)
}

// signature computes the k = Bands×Rows minhash values of a canonical
// set into sig (allocated when nil).
func (x *Index) signature(set []uint64, sig []uint64) []uint64 {
	k := x.cfg.Bands * x.cfg.Rows
	if cap(sig) < k {
		sig = make([]uint64, k)
	}
	sig = sig[:k]
	for i := range sig {
		seed := splitmix64(uint64(x.cfg.Seed) + uint64(i)*0x6a09e667f3bcc909)
		min := uint64(math.MaxUint64)
		for _, tok := range set {
			if h := splitmix64(tok ^ seed); h < min {
				min = h
			}
		}
		sig[i] = min
	}
	return sig
}

// bandKey hashes band b of sig with FNV-1a: key = FNV-1a(b ‖ rows).
func (x *Index) bandKey(sig []uint64, b int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(b))
	for _, v := range sig[b*x.cfg.Rows : (b+1)*x.cfg.Rows] {
		mix(v)
	}
	return h
}

// Jaccard returns the exact Jaccard similarity |a∩b| / |a∪b| of two
// canonical (sorted, deduplicated) sets.
func Jaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var inter int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Insert adds a set and returns its id (the previous Len()).
func (x *Index) Insert(set []uint64) (int32, error) {
	s, err := Canonicalize(set)
	if err != nil {
		return 0, err
	}
	sig := x.signature(s, nil)
	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.sets) >= math.MaxInt32 {
		return 0, fmt.Errorf("minhash: id space exhausted")
	}
	id := int32(len(x.sets))
	x.sets = append(x.sets, s)
	x.sigs = append(x.sigs, sig)
	for b := range x.buckets {
		key := x.bandKey(sig, b)
		x.buckets[b][key] = append(x.buckets[b][key], id)
	}
	x.live++
	return id, nil
}

// Delete retires a live id: its set is dropped, its bucket entries
// removed, and the id is never reused.
func (x *Index) Delete(id int32) error {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	if id < 0 || int(id) >= len(x.sets) || x.sets[id] == nil {
		return fmt.Errorf("minhash: id %d is not live", id)
	}
	sig := x.sigs[id]
	for b := range x.buckets {
		key := x.bandKey(sig, b)
		ids := x.buckets[b][key]
		if i := slices.Index(ids, id); i >= 0 {
			if len(ids) == 1 {
				delete(x.buckets[b], key)
			} else {
				// A copy: readers may hold ids (see Bucket).
				x.buckets[b][key] = append(slices.Clone(ids[:i]), ids[i+1:]...)
			}
		}
	}
	x.sets[id] = nil
	x.sigs[id] = nil
	x.live--
	x.dead++
	return nil
}

// Compact rebuilds the bucket maps over exactly the live sets —
// reclaiming map capacity left behind by deletes — and clears the
// dead count. Ids are untouched. No other mutation can run meanwhile
// (wmu), so the tables are built from the signatures under the read
// side of mu, which queries share, and only the swap excludes them.
func (x *Index) Compact() error {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.mu.RLock()
	buckets := make([]map[uint64][]int32, x.cfg.Bands)
	for b := range buckets {
		buckets[b] = make(map[uint64][]int32)
	}
	for id, sig := range x.sigs {
		if sig == nil {
			continue
		}
		for b := range buckets {
			key := x.bandKey(sig, b)
			buckets[b][key] = append(buckets[b][key], int32(id))
		}
	}
	x.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.buckets = buckets
	x.dead = 0
	x.compactions++
	return nil
}

// Len returns the number of ids ever assigned.
func (x *Index) Len() int { x.mu.RLock(); defer x.mu.RUnlock(); return len(x.sets) }

// LiveLen returns the number of live sets.
func (x *Index) LiveLen() int { x.mu.RLock(); defer x.mu.RUnlock(); return x.live }

// Counts returns, as of one moment, Len, LiveLen, the number of deletes
// since the last Compact and the number of Compact calls since the
// index was built or read.
func (x *Index) Counts() (ids, live, dead, compactions int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.sets), x.live, x.dead, x.compactions
}

// IsLive reports whether id is assigned and not deleted.
func (x *Index) IsLive(id int32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return id >= 0 && int(id) < len(x.sets) && x.sets[id] != nil
}

// Bands returns the band count b.
func (x *Index) Bands() int { return x.cfg.Bands }

// Rows returns the per-band row count r.
func (x *Index) Rows() int { return x.cfg.Rows }

// Seed returns the hash seed.
func (x *Index) Seed() int64 { return x.cfg.Seed }

// Threshold returns the configured similarity floor.
func (x *Index) Threshold() float64 { return x.cfg.Threshold }

// Set returns the canonical token set of a live id, or nil. The
// returned slice is the index's own storage and must not be modified;
// it stays valid because sets are immutable once inserted.
func (x *Index) Set(id int32) []uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if id < 0 || int(id) >= len(x.sets) {
		return nil
	}
	return x.sets[id]
}

// Buckets returns the given band's table — bucket key → the live ids in
// it — as a shallow copy taken under the read lock. Like Set, each id
// slice is the index's own storage and must not be modified; it stays
// what it was when returned, whatever is inserted or deleted afterwards,
// so a caller can read the tables of several indexes while holding none
// of their locks.
func (x *Index) Buckets(band int) map[uint64][]int32 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return maps.Clone(x.buckets[band])
}

// Search returns up to k live sets most similar to the query set, each
// with its Jaccard distance 1 − J, sorted by (distance, id). Candidates
// come from band-bucket collisions, are rescored exactly, and results
// below the configured similarity threshold are dropped — so a set
// sharing no band with the query is invisible even if similar (the b×r
// S-curve decides that probability).
func (x *Index) Search(set []uint64, k int, opt SearchOpt) ([]metrics.Neighbor, Stats, error) {
	var st Stats
	q, err := Canonicalize(set)
	if err != nil {
		return nil, st, err
	}
	if k < 1 {
		return nil, st, fmt.Errorf("minhash: k must be >= 1 (got %d)", k)
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	sig := x.signature(q, nil)
	seen := make(map[int32]struct{})
	cand := make([]int32, 0, 64)
	for b := range x.buckets {
		for _, id := range x.buckets[b][x.bandKey(sig, b)] {
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				cand = append(cand, id)
			}
		}
	}
	st.Candidates = len(cand)
	// Deterministic rescore order (bucket iteration order is not).
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	top := make([]metrics.Neighbor, 0, vec.PreallocCap(k, len(cand)))
	for _, id := range cand {
		if opt.Filter != nil && !opt.Filter(id) {
			continue
		}
		if opt.Budget > 0 && st.Verified >= opt.Budget {
			break
		}
		st.Verified++
		sim := Jaccard(q, x.sets[id])
		if sim < x.cfg.Threshold {
			continue
		}
		insertNeighbor(&top, k, metrics.Neighbor{ID: id, Dist: 1 - sim})
	}
	return top, st, nil
}

// insertNeighbor keeps top as the k best neighbors ordered by
// (distance, id).
func insertNeighbor(top *[]metrics.Neighbor, k int, n metrics.Neighbor) {
	t := *top
	pos := sort.Search(len(t), func(i int) bool {
		if t[i].Dist != n.Dist {
			return t[i].Dist > n.Dist
		}
		return t[i].ID > n.ID
	})
	if len(t) < k {
		t = append(t, metrics.Neighbor{})
	} else if pos >= len(t) {
		return
	}
	copy(t[pos+1:], t[pos:])
	t[pos] = n
	*top = t
}
