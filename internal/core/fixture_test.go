package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadsParentWrittenChurnedStream pins "streams the parent wrote
// load": testdata/pls4-parent-churned.bin is a PLS4 stream written by
// the last release whose Insert refilled tombstoned rows. It was built
// over clusteredData(300, 6, 4, 501)[:240] (M 8, Seed 9, no
// auto-compaction), then: 40 deletes, 30 inserts into refilled rows, 4
// more deletes (two of them inserted points), 10 more inserts — 240
// rows for 280 ids, 4 of them dead, a 40-row tail in the tree. It must
// load, report that state, answer as the release that wrote it did (ids
// and distance bits recorded there), keep its dead rows dead, and round
// trip.
func TestLoadsParentWrittenChurnedStream(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pls4-parent-churned.bin"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 280 || ix.LiveLen() != 236 || ix.dead() != 4 || ix.data.Len() != 240 ||
		ix.tailFraction() != 40.0/280 || ix.deadFraction() != 4.0/240 {
		t.Fatalf("loaded %d ids, %d live, %d dead of %d rows, tail %v, dead share %v",
			ix.Len(), ix.LiveLen(), ix.dead(), ix.data.Len(), ix.tailFraction(), ix.deadFraction())
	}
	for _, id := range []int32{0, 3, 100, 237, 245, 260} {
		if ix.IsLive(id) {
			t.Fatalf("id %d, deleted before the save, is live", id)
		}
	}

	data := clusteredData(300, 6, 4, 501)
	type hit struct {
		id   int32
		bits uint64
	}
	for _, tc := range []struct {
		q        int
		want     []hit
		verified int
	}{
		{1, []hit{{1, 0x0}, {244, 0x40036d34878414a2}, {17, 0x40057342e08abf91}, {274, 0x4005bddad062e6ea}, {228, 0x4009634bf0b0799c}}, 72},
		{150, []hit{{150, 0x0}, {179, 0x40006a1fcbfde705}, {145, 0x400323c8480ef36f}, {196, 0x4003e7ffccba61fb}, {223, 0x4004aa9b78866683}}, 57},
		{255, []hit{{255, 0x0}, {169, 0x40095a789e2af5eb}, {270, 0x400a00e3b8327b3e}, {154, 0x400aec0816351175}, {61, 0x400d763b497e45d4}}, 72},
		{290, []hit{{206, 0x4010e79bb444a8ed}, {198, 0x40160af21f03719e}, {221, 0x4016312b623a3674}, {258, 0x4016fbe59560eca4}, {97, 0x4017420542358b26}}, 49},
	} {
		var st QueryStats
		got, err := ix.Search(context.Background(), data[tc.q], 5, SearchOptions{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("query %d: %d results, want %d", tc.q, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			if got[i].ID != w.id || math.Float64bits(got[i].Dist) != w.bits {
				t.Fatalf("query %d result %d: {%d %#x}, the writer answered {%d %#x}",
					tc.q, i, got[i].ID, math.Float64bits(got[i].Dist), w.id, w.bits)
			}
		}
		if st.Rounds != 1 || st.Verified != tc.verified || st.ProjectedDistComps != 280 {
			t.Fatalf("query %d did %+v, the writer verified %d in one round over 280 rows", tc.q, st, tc.verified)
		}
	}
	var ps CPStats
	pairs, err := ix.SearchPairs(context.Background(), 3, SearchOptions{PairStats: &ps})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := []Pair{
		{154, 270, math.Float64frombits(0x3ff3898d63257bd8)},
		{257, 258, math.Float64frombits(0x3ffafbc2b75a543d)},
		{8, 198, math.Float64frombits(0x3ffbeec4550a1c0a)},
	}
	if len(pairs) != len(wantPairs) {
		t.Fatalf("SearchPairs returned %d pairs, want %d", len(pairs), len(wantPairs))
	}
	for i, w := range wantPairs {
		if pairs[i] != w {
			t.Fatalf("pair %d: %+v, the writer answered %+v", i, pairs[i], w)
		}
	}
	if want := (CPStats{Rounds: 1, Enumerated: 6, Verified: 6, ProjectedDistComps: 5312}); ps != want {
		t.Fatalf("SearchPairs did %+v, the writer %+v", ps, want)
	}

	// The stream is stable under this release: what loads is what is
	// written again (the dead rows the writer had not refilled included).
	var again bytes.Buffer
	if _, err := ix.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("the loaded index serializes to different bytes than it was loaded from")
	}
	// An insert gets the next id and a new row; the 4 dead rows stay dead.
	id, err := ix.Insert(data[281])
	if err != nil {
		t.Fatal(err)
	}
	if id != 280 || ix.data.Len() != 241 || ix.dead() != 4 {
		t.Fatalf("insert after load: id %d, %d rows, %d dead; want 280, 241, 4", id, ix.data.Len(), ix.dead())
	}
}
