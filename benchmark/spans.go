package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Spans of one job share its index;
// Parent is the index of the enclosing span in the tracer's list, -1 for a
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out with its result
// once measurement is over. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, job, parent int) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: time.Since(t.t0).Nanoseconds(), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(ix int) {
	t.spans[ix].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children are counted
// once and a child reaching outside its parent is clipped, so self time is
// never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
