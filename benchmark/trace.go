package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call — the program under test is not
// instrumented. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the span that caused this one; -1 for a root
	Query  int    `json:"query"`  // spans of one query share its number
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	clock func() int64
	spans []span
}

func newTracer(clock func() int64, capacity int) *tracer {
	return &tracer{clock: clock, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, which is also the parent
// argument of its children.
func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query, Start: t.clock()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.clock() }

// selfTimes is, per span, its duration minus the part its children
// cover: the time spent in the layer itself.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.duration()
		if s.Parent >= 0 {
			self[s.Parent] -= s.duration()
		}
	}
	return self
}

// totals sums durations by span name.
func totals(spans []span) map[string]int64 {
	total := map[string]int64{}
	for _, s := range spans {
		total[s.Name] += s.duration()
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
