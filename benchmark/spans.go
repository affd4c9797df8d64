package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// process started. Spans of one op share OpID; Parent is the index of the
// enclosing span in the slice the span is in, -1 for an op's root.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	OpID     int    `json:"op_id"`
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, which is how the untraced passes run the same
// code as the traced ones.
type spanRecorder struct {
	workload string
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload}
}

// processStart is the zero of every span's clock.
var processStart = time.Now()

// appendSpans appends one recorder's spans to a collection of several,
// moving their parent indexes along.
func appendSpans(all, spans []span) []span {
	offset := len(all)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += offset
		}
		all = append(all, s)
	}
	return all
}

// begin opens a span and returns its index for end and for children.
func (r *spanRecorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Workload: r.workload, Name: name, Parent: parent, OpID: op,
		StartNS: int64(time.Since(processStart)),
	})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = int64(time.Since(processStart))
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover. Children may overlap each other or stick out of the
// parent; the covered part is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot,
// which is one of this repo's package names (or "benchmark" for the
// harness's own glue).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfTimes sums self time per layer and returns it with the total
// duration of the root spans (the traced op time).
func layerSelfTimes(spans []span) (byLayer map[string]int64, opTime int64) {
	byLayer = make(map[string]int64)
	for i, self := range selfTimes(spans) {
		byLayer[layerOf(spans[i].Name)] += self
		if spans[i].Parent < 0 {
			opTime += spans[i].EndNS - spans[i].StartNS
		}
	}
	return byLayer, opTime
}
