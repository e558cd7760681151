package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported functions (nothing inside the engine is
// instrumented). Spans of one operation share Op; Parent is the index of
// the enclosing span, or -1.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. The traced run is single-threaded, so there is no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index, to be passed to end and used
// as the parent of nested spans.
func (t *tracer) begin(layer, name string, parent, op int) int {
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Op: op,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// call times fn as one span.
func (t *tracer) call(layer, name string, parent, op int, fn func()) time.Duration {
	id := t.begin(layer, name, parent, op)
	fn()
	return t.end(id)
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
