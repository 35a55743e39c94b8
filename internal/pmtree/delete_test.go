package pmtree

import (
	"math/rand"
	"testing"
)

// Deleting points must remove them from every query path while leaving
// the survivors' answers exact (range against brute force over the
// survivors), for a bulk-loaded tree — dead leaf entries — and for one
// grown from New by Insert alone, which is all tail.
func TestDeleteRemovesFromQueries(t *testing.T) {
	data := randData(400, 6, 71)
	for _, grow := range []bool{false, true} {
		var tr *Tree
		var err error
		if grow {
			tr, err = New(6, Config{NumPivots: 3, PivotSeed: 72})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range data {
				if err := tr.Insert(p, int32(i)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			tr, err = Build(data, nil, Config{NumPivots: 3, PivotSeed: 72})
			if err != nil {
				t.Fatal(err)
			}
		}

		rng := rand.New(rand.NewSource(73))
		alive := make(map[int32]bool, len(data))
		for i := range data {
			alive[int32(i)] = true
		}
		// Delete a random 40%.
		for _, id := range rng.Perm(len(data))[:160] {
			if err := tr.Delete(int32(id)); err != nil {
				t.Fatalf("grow=%v delete %d: %v", grow, id, err)
			}
			delete(alive, int32(id))
		}
		if tr.Len() != len(alive) {
			t.Fatalf("grow=%v: Len %d after deletes, want %d", grow, tr.Len(), len(alive))
		}

		survivors := make([][]float64, 0, len(alive))
		ids := make([]int32, 0, len(alive))
		for i, p := range data {
			if alive[int32(i)] {
				survivors = append(survivors, p)
				ids = append(ids, int32(i))
			}
		}
		for trial := 0; trial < 10; trial++ {
			q := data[rng.Intn(len(data))]
			want := bruteRange(survivors, q, 8)
			for i := range want {
				want[i].ID = ids[want[i].ID]
			}
			got, err := tr.RangeSearch(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(got, want) {
				t.Fatalf("grow=%v trial %d: range diverged from survivor brute force", grow, trial)
			}
		}
	}
}

func TestDeleteErrors(t *testing.T) {
	data := randData(50, 4, 74)
	tr, err := Build(data, nil, Config{NumPivots: 2, PivotSeed: 75})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := tr.Delete(999); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := tr.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(0); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := tr.Insert(data[0], -1); err == nil {
		t.Fatal("negative id inserted")
	}
	// An id inserted after the first Delete is deletable too.
	if err := tr.Insert(data[0], 2000); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(2000); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 49 {
		t.Fatalf("Len %d, want 49", tr.Len())
	}
}

// Delete marks rows dead without freeing them, Insert appends behind
// them, and the pair enumerator pairs exactly the live points — none
// from a leaf whose entries are all dead, all of the tail's.
func TestDeleteInsertPairEnumeration(t *testing.T) {
	data := randData(120, 5, 76)
	tr, err := Build(data, nil, Config{NumPivots: 2, PivotSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	slots := tr.Rows()
	rng := rand.New(rand.NewSource(78))
	dead := map[int32]bool{}
	// Empty out a whole leaf's worth of nearby points plus a random set.
	for _, id := range rng.Perm(len(data))[:70] {
		if err := tr.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
		dead[int32(id)] = true
	}
	if tr.Rows() != slots || tr.Tail() != 0 || tr.Len() != 50 {
		t.Fatalf("after 70 deletes: %d rows (%d in the tail) for %d points, want %d rows, no tail, 50 points",
			tr.Rows(), tr.Tail(), tr.Len(), slots)
	}
	for i := 0; i < 30; i++ {
		if err := tr.Insert(data[i], int32(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Rows() != slots+30 || tr.Tail() != 30 || tr.Len() != 80 {
		t.Fatalf("after 30 inserts: %d rows (%d in the tail) for %d points, want %d rows, 30 in the tail, 80 points",
			tr.Rows(), tr.Tail(), tr.Len(), slots+30)
	}
	en := NewPairEnumerator(tr)
	pairs := 0
	for {
		cand, ok := en.Next()
		if !ok {
			break
		}
		if dead[cand.ID1] || dead[cand.ID2] {
			t.Fatalf("enumerator emitted deleted id: %+v", cand)
		}
		pairs++
	}
	if pairs != 80*79/2 {
		t.Fatalf("enumerated %d pairs of 80 live points, want %d", pairs, 80*79/2)
	}
}
