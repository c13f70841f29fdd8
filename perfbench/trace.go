package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Layers the benchmark attributes time to. Every span names one; the
// harness layer is the benchmark's own code around the calls (pacing,
// request building, bookkeeping).
const (
	layerHarness   = "harness"
	layerSim       = "sim"
	layerMeanfield = "meanfield"
	layerServe     = "serve"
	layerCluster   = "cluster"
)

// traceLayers is the fixed order in which per-layer metrics are printed.
var traceLayers = []string{layerHarness, layerSim, layerMeanfield, layerServe, layerCluster}

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent is the index of the enclosing span or -1; Req
// groups the spans of one request or operation.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer records spans in memory. A nil *tracer is the untraced mode:
// every method is a no-op that costs one nil test, so workload code calls
// it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// noSpan is the id begin returns when tracing is off, and the parent of a
// root span.
const noSpan int32 = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name, layer string, parent int32, req int64) int32 {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was timed elsewhere (a peer RPC timed
// inside an http.RoundTripper, say).
func (t *tracer) record(name, layer string, start, end time.Time, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), Parent: noSpan, Req: req})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans, ids preserved as indices. A span
// still open (none should be, once a workload returns) is closed at its
// start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns each layer's self time in nanoseconds: the sum over
// its spans of the span's duration minus the part its children cover.
// Children of one span are sequential in this benchmark, so the covered
// part is the sum of their durations.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent != noSpan {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		self := s.End - s.Start - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += self
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// layerCalls counts the spans of each layer.
func layerCalls(spans []span) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Layer]++
	}
	return out
}
