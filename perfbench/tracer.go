package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public API. Spans of one sample or
// request share Req; Parent is the index of the enclosing span (-1 for a
// root). Alloc is the heap bytes allocated process-wide while it ran.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's prefix before the first '.': the repository
// module the call belongs to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory for a single goroutine; a nil tracer
// records nothing and costs one branch per call, which is what the
// untraced side of the overhead measurement runs.
type tracer struct {
	epoch  time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its index, to be passed to end.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Alloc: t.allocBytes()})
	i := len(t.spans) - 1
	t.spans[i].Start = int64(time.Since(t.epoch))
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].Alloc = t.allocBytes() - t.spans[i].Alloc
}

// call wraps fn in a span.
func (t *tracer) call(name string, req, parent int, fn func()) {
	i := t.begin(name, req, parent)
	fn()
	t.end(i)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// meanAlloc returns the mean heap bytes allocated per span with the name.
func (t *tracer) meanAlloc(name string) float64 {
	var sum, n float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.Alloc)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.layer()] += s.dur() - child[i]
	}
	return out
}

// coverage returns the share of the summed duration of root spans named
// root that their direct children cover.
func (t *tracer) coverage(root string) float64 {
	var total, covered time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			total += s.dur()
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == root {
			covered += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// writeSummary prints per-layer self time and its share of all root time.
func (t *tracer) writeSummary(w io.Writer) {
	self := t.selfTimes()
	var roots time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			roots += s.dur()
		}
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "trace: %d spans, %.1f ms in root spans\n", len(t.spans), roots.Seconds()*1e3)
	for _, l := range layers {
		share := 0.0
		if roots > 0 {
			share = float64(self[l]) / float64(roots)
		}
		fmt.Fprintf(w, "  self %-12s %10.1f ms  %5.1f%%\n", l, self[l].Seconds()*1e3, 100*share)
	}
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
