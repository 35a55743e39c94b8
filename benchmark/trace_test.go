package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Self time is a span's duration minus what its children cover.
func TestSelfTimes(t *testing.T) {
	now := int64(0)
	tr := newTracer(func() int64 { now += 10; return now }, 8)
	root := tr.begin("query", -1, 0) // starts at 10
	a := tr.begin("a", root, 0)      // 20..30
	tr.end(a)
	b := tr.begin("b", root, 0) // 40..70, with a child 50..60
	bb := tr.begin("bb", b, 0)
	tr.end(bb)
	tr.end(b)
	tr.end(root) // ends at 80
	self := selfTimes(tr.spans)
	want := []int64{70 - 10 - 30, 10, 30 - 10, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, tr.spans[i].Name, self[i], want[i])
		}
	}
}

// The spans a real traced replay records, read back from the file the
// writer produced: every child lies inside its parent, the spans of a
// query share its number, and no self time is negative.
func TestReplayTraceIsWellFormed(t *testing.T) {
	in := testInputs(t, 1, 1)
	ix, err := core.Build(in.points, core.Config{Seed: buildSeed})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(ix, in.points, core.SearchOptions{C: queryC})
	if err != nil {
		t.Fatal(err)
	}
	rp.run(in.fixed, true)
	if rp.failed != 0 || rp.mismatches != 0 || rp.queries != len(in.fixed) {
		t.Fatalf("replay: %d queries, %d failed, %d mismatches", rp.queries, rp.failed, rp.mismatches)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rp.tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != len(rp.tr.spans) || len(doc.Spans) < 6*len(in.fixed) {
		t.Fatalf("%d spans on disk, %d recorded, for %d queries", len(doc.Spans), len(rp.tr.spans), len(in.fixed))
	}
	for i, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := doc.Spans[s.Parent]
		if s.Parent >= i || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) [%d,%d] is not inside its parent %d (%s) [%d,%d]",
				i, s.Name, s.Start, s.End, s.Parent, p.Name, p.Start, p.End)
		}
		if s.Query != p.Query {
			t.Fatalf("span %d (%s) belongs to query %d, its parent to query %d", i, s.Name, s.Query, p.Query)
		}
	}
	for i, st := range selfTimes(doc.Spans) {
		if st < 0 {
			t.Fatalf("span %d (%s) has negative self time %d", i, doc.Spans[i].Name, st)
		}
	}
}
