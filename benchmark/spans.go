package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// traced request share req; parent is the enclosing span's id (-1 for the
// request's root). keys is how many keys the call covered, so per-key
// costs divide by it.
type span struct {
	name       string
	req        int32
	id         int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
	keys       int32
}

// tracer keeps spans in memory; write dumps them once the run ends. A
// disabled tracer records nothing, which is the untraced pass the tracing
// overhead is measured against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, req, parent int32, keys int) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		name: name, req: req, id: id, parent: parent, keys: int32(keys),
		start: int64(time.Since(t.epoch)),
	})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = int64(time.Since(t.epoch))
	}
}

// layerCost is one span name's totals: summed self time and keys covered.
type layerCost struct {
	selfNs int64
	keys   int64
	calls  int64
}

// perKey is the mean self time per key covered.
func (c layerCost) perKey() float64 {
	if c.keys == 0 {
		return 0
	}
	return float64(c.selfNs) / float64(c.keys)
}

// perCall is the mean self time per span.
func (c layerCost) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.selfNs) / float64(c.calls)
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover; children of one
// parent never overlap (the traced run is sequential), so that part is the
// sum of their durations.
func selfTimes(spans []span) map[string]layerCost {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerCost)
	for i, s := range spans {
		c := out[s.name]
		c.selfNs += s.end - s.start - child[i]
		c.keys += int64(s.keys)
		c.calls++
		out[s.name] = c
	}
	return out
}

// writeSpans dumps spans as tab-separated lines:
// req, id, parent, name, start_ns, end_ns, keys.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns\tkeys")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.req, s.id, s.parent, s.name, s.start, s.end, s.keys)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
