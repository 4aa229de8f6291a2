package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestTraceRingWraparound fills a small ring past capacity and checks that
// only the newest traces survive, newest first.
func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		tr := NewTrace(string(rune('a'+i)), "analyze", "POST", "/v1/analyze", base)
		tr.Finish(200)
		r.Add(tr)
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d traces, want 4 (ring capacity)", len(snap))
	}
	for i, want := range []string{"f", "e", "d", "c"} {
		if snap[i].ID != want {
			t.Fatalf("snapshot[%d].ID = %q, want %q (newest first)", i, snap[i].ID, want)
		}
	}
}

func TestTraceSpansAndServerTiming(t *testing.T) {
	start := time.Now()
	tr := NewTrace("abc123", "analyze", "POST", "/v1/analyze", start)
	tr.AddSpanDur("cache probe", start, 250*time.Microsecond)
	tr.AddSpanDur("analysis", start, 3*time.Millisecond)
	tr.Finish(200)

	st := tr.ServerTiming()
	// Span names must be sanitized to header tokens; durations are ms.
	if !strings.Contains(st, "cache-probe;dur=0.250") {
		t.Errorf("Server-Timing %q missing sanitized cache span", st)
	}
	if !strings.Contains(st, "analysis;dur=3.000") {
		t.Errorf("Server-Timing %q missing analysis span", st)
	}
	if !strings.Contains(st, "total;dur=") {
		t.Errorf("Server-Timing %q missing total", st)
	}

	v := tr.view()
	if v.Status != 200 || len(v.Spans) != 2 || v.Spans[1].DurNS != 3e6 {
		t.Fatalf("view = %+v", v)
	}
}

// TestAddSpanZeroAlloc: recording up to traceSpanCap spans costs no
// allocation, so request-stage instrumentation stays off the heap.
func TestAddSpanZeroAlloc(t *testing.T) {
	start := time.Now()
	tr := NewTrace("abc123", "analyze", "POST", "/v1/analyze", start)
	n := testing.AllocsPerRun(1, func() {
		tr.spans = tr.spans[:0]
		for i := 0; i < traceSpanCap; i++ {
			tr.AddSpan("decode", start)
		}
	})
	if n != 0 {
		t.Fatalf("%d spans cost %.0f allocations, want 0", traceSpanCap, n)
	}
}

// TestTraceNilSafety: every method on a nil trace must be a no-op so code
// paths instrument unconditionally.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.AddSpan("x", time.Now())
	tr.AddSpanDur("y", time.Now(), time.Second)
	tr.Finish(500)
	if tr.ID() != "" || tr.ServerTiming() != "" {
		t.Fatal("nil trace must render empty")
	}
	NewTraceRing(2).Add(nil) // must not panic or count
}

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("background context must carry no trace")
	}
	tr := NewTrace("id", "other", "GET", "/", time.Now())
	ctx := WithTrace(context.Background(), tr)
	if TraceFromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids %q, %q: want 16 hex chars, distinct", a, b)
	}
}
