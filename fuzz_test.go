package pmlsh

// Native fuzz target for the mutation lifecycle: the fuzzer drives a
// byte-encoded program of Insert/Delete/KNN/Compact ops against a
// small index and a map-based oracle of the live set. Every KNN answer
// is checked id-by-id: only live ids, exact distances against the
// oracle's vector (which catches storage-row recycling mixups, not
// just liveness), sorted output, and Len/LiveLen bookkeeping after
// every op. The highest program bytes carry a vector too large to
// project, which Insert and Search must turn away with an error and no
// effect. Seed corpus under testdata/fuzz/FuzzMutateQuery.
//
// Run with: go test -fuzz=FuzzMutateQuery -fuzztime=10s .

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

const fuzzDim = 4

// fuzzHuge is the first program byte whose vector is ±1e308 in every
// component: finite floats whose projection overflows.
const fuzzHuge = 250

// fuzzVec derives a deterministic small vector from one program byte
// (see fuzzHuge for the large ones).
func fuzzVec(b byte, salt int) []float64 {
	rng := rand.New(rand.NewSource(int64(b)*1315423911 + int64(salt)))
	p := make([]float64, fuzzDim)
	for j := range p {
		p[j] = rng.NormFloat64() * 3
		if b >= fuzzHuge {
			p[j] = math.Copysign(1e308, p[j])
		}
	}
	return p
}

func FuzzMutateQuery(f *testing.F) {
	// Seeds covering each op kind and a mixed program.
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 4, 3})
	f.Add([]byte{0, 2, 0, 2, 4, 0, 3, 1, 2, 3, 4, 3, 255, 128, 7})
	f.Add([]byte{0, 250, 1, 253, 3, 251, 4, 253, 0}) // 1e308 inserts and queries between ordinary ops

	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 96 {
			program = program[:96]
		}
		base := make([][]float64, 12)
		for i := range base {
			base[i] = fuzzVec(byte(i), 1000)
		}
		ix, err := Build(base, Config{M: 4, NumPivots: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[int32][]float64, len(base))
		for i, p := range base {
			oracle[int32(i)] = p
		}

		for pc, b := range program {
			switch b % 5 {
			case 0, 1: // insert
				p := fuzzVec(b, pc)
				id, err := ix.Insert(p)
				if b >= fuzzHuge {
					if err == nil {
						t.Fatalf("pc %d: insert of %v accepted", pc, p)
					}
					break
				}
				if err != nil {
					t.Fatalf("pc %d: insert: %v", pc, err)
				}
				if _, taken := oracle[id]; taken {
					t.Fatalf("pc %d: insert reused id %d", pc, id)
				}
				oracle[id] = p
			case 2: // delete an id picked by the byte — live or dead
				id := int32(b) % int32(ix.Len())
				err := ix.Delete(id)
				if _, live := oracle[id]; live {
					if err != nil {
						t.Fatalf("pc %d: delete live %d: %v", pc, id, err)
					}
					delete(oracle, id)
				} else if err == nil {
					t.Fatalf("pc %d: delete of dead id %d succeeded", pc, id)
				}
			case 3: // query
				q := fuzzVec(b, -pc)
				k := 1 + int(b)%6
				res, err := ix.Search(context.Background(), q, k, WithRatio(1.5))
				if b >= fuzzHuge {
					if err == nil {
						t.Fatalf("pc %d: query %v answered", pc, q)
					}
					break
				}
				if err != nil {
					t.Fatalf("pc %d: knn: %v", pc, err)
				}
				want := k
				if want > len(oracle) {
					want = len(oracle)
				}
				if len(res) != want {
					t.Fatalf("pc %d: %d results, want %d (live %d)", pc, len(res), want, len(oracle))
				}
				prev := math.Inf(-1)
				for _, nb := range res {
					p, live := oracle[nb.ID]
					if !live {
						t.Fatalf("pc %d: dead id %d in results", pc, nb.ID)
					}
					if d := vec.L2(q, p); d != nb.Dist {
						t.Fatalf("pc %d: id %d dist %v, oracle vector says %v", pc, nb.ID, nb.Dist, d)
					}
					if nb.Dist < prev {
						t.Fatalf("pc %d: results unsorted", pc)
					}
					prev = nb.Dist
				}
			case 4: // compact
				if err := ix.Compact(); err != nil {
					t.Fatalf("pc %d: compact: %v", pc, err)
				}
			}
			if ix.LiveLen() != len(oracle) {
				t.Fatalf("pc %d: LiveLen=%d oracle=%d", pc, ix.LiveLen(), len(oracle))
			}
		}
	})
}
