package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

func deltaBody(t testing.TB, req DeltaRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeDelta(t testing.TB, body []byte) DeltaResponse {
	t.Helper()
	var resp DeltaResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal delta response: %v", err)
	}
	return resp
}

// wcetBump is the canonical what-if patch: grow one vertex's WCET.
func wcetBump(task rt.TaskID, vertex rt.VertexID, to rt.Time) model.Patch {
	return model.Patch{Ops: []model.PatchOp{
		{Op: model.OpSetWCET, Task: task, Vertex: vertex, Value: to},
	}}
}

// TestDeltaEndToEnd drives the admission-control loop the endpoint exists
// for: establish state once (fallback), then answer successive what-if
// patches from retained state (hits), each verdict bit-identical to a full
// /v1/analyze of the same edited taskset.
func TestDeltaEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := testTaskset(t, 0)

	// First query carries the base taskset: the server has no state, so it
	// runs one full base analysis per method and retains state.
	w := post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
		BaseTaskset: jsonRoundTrip(t, base),
		Patch:       wcetBump(0, 1, 120*rt.Microsecond),
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("fallback delta: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeDelta(t, w.Body.Bytes())
	if resp.BaseHash != base.Hash().String() {
		t.Errorf("base_hash %q != %q", resp.BaseHash, base.Hash())
	}
	m := s.Metrics()
	if m.DeltaFallbacks != 2 || m.DeltaHits != 0 {
		t.Errorf("after fallback: fallbacks=%d hits=%d, want 2/0", m.DeltaFallbacks, m.DeltaHits)
	}
	if m.DeltaStates == 0 {
		t.Error("no retained delta states after fallback")
	}

	// The patched verdict must be bit-identical to analyzing the edited
	// taskset from scratch, and the response hash must be the edited
	// taskset's canonical hash.
	patched, _, err := model.ApplyPatch(base, wcetBump(0, 1, 120*rt.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hash != patched.Hash().String() {
		t.Errorf("hash %q != patched taskset hash %q", resp.Hash, patched.Hash())
	}
	for _, meth := range []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN} {
		mr := resp.Results[string(meth)]
		if mr == nil {
			t.Fatalf("method %s missing from response", meth)
		}
		want := analysis.Test(meth, patched, analysis.Options{})
		if mr.Schedulable != want.Schedulable {
			t.Errorf("%s: schedulable=%v, full analysis says %v", meth, mr.Schedulable, want.Schedulable)
		}
		for id, wcrt := range want.WCRT {
			if mr.WCRT[id] != wcrt {
				t.Errorf("%s: wcrt[%d]=%d, full analysis says %d", meth, id, mr.WCRT[id], wcrt)
			}
		}
	}

	// Second query: base hash only, no taskset — answered from retained
	// state, incrementally.
	w = post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
		Base:  base.Hash().String(),
		Patch: wcetBump(0, 1, 140*rt.Microsecond),
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("hit delta: status %d: %s", w.Code, w.Body.String())
	}
	resp = decodeDelta(t, w.Body.Bytes())
	m = s.Metrics()
	if m.DeltaHits != 2 {
		t.Errorf("after hit: delta_hits=%d, want 2", m.DeltaHits)
	}
	if m.DeltaFallbacks != 2 {
		t.Errorf("after hit: delta_fallbacks=%d, want still 2", m.DeltaFallbacks)
	}
	for _, meth := range []analysis.Method{analysis.DPCPpEP, analysis.DPCPpEN} {
		info := resp.Delta[string(meth)]
		if info == nil || !info.Incremental {
			t.Errorf("%s: expected incremental answer, got %+v", meth, info)
		}
	}
	patched2, _, err := model.ApplyPatch(base, wcetBump(0, 1, 140*rt.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	full := post(t, s, "/v1/analyze", analyzeBody(t, patched2,
		string(analysis.DPCPpEP), string(analysis.DPCPpEN)))
	if full.Code != http.StatusOK {
		t.Fatalf("full analyze: status %d: %s", full.Code, full.Body.String())
	}
	var fullResp AnalyzeResponse
	if err := json.Unmarshal(full.Body.Bytes(), &fullResp); err != nil {
		t.Fatal(err)
	}
	if fullResp.Hash != resp.Hash {
		t.Errorf("delta hash %q != full analyze hash %q", resp.Hash, fullResp.Hash)
	}
	for meth, want := range fullResp.Results {
		got := resp.Results[meth]
		if got == nil || got.Schedulable != want.Schedulable {
			t.Errorf("%s: delta verdict %+v != full verdict %+v", meth, got, want)
		}
	}
}

// TestDeltaChaining pins that a delta response's hash is itself a ready
// base: the run chains fresh state under the patched hash, so patch
// sequences stay incremental without ever re-sending a taskset.
func TestDeltaChaining(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := testTaskset(t, 0)

	w := post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
		BaseTaskset: jsonRoundTrip(t, base),
		Patch:       wcetBump(0, 1, 120*rt.Microsecond),
		Methods:     []string{string(analysis.DPCPpEP)},
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeDelta(t, w.Body.Bytes())

	// Chain: patch the patched set, quoting only its hash.
	w = post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
		Base:    resp.Hash,
		Patch:   wcetBump(1, 0, 160*rt.Microsecond),
		Methods: []string{string(analysis.DPCPpEP)},
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("chained delta: status %d: %s", w.Code, w.Body.String())
	}
	chained := decodeDelta(t, w.Body.Bytes())
	if m := s.Metrics(); m.DeltaHits != 1 {
		t.Errorf("chained query: delta_hits=%d, want 1", m.DeltaHits)
	}

	p1, _, err := model.ApplyPatch(base, wcetBump(0, 1, 120*rt.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := model.ApplyPatch(p1, wcetBump(1, 0, 160*rt.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if chained.Hash != p2.Hash().String() {
		t.Errorf("chained hash %q != twice-patched hash %q", chained.Hash, p2.Hash())
	}
	want := analysis.Test(analysis.DPCPpEP, p2, analysis.Options{})
	got := chained.Results[string(analysis.DPCPpEP)]
	if got == nil || got.Schedulable != want.Schedulable {
		t.Errorf("chained verdict %+v, full analysis says schedulable=%v", got, want.Schedulable)
	}
}

// TestDeltaErrors pins the structured 400s of the endpoint's boundary.
func TestDeltaErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := testTaskset(t, 0)
	baseHash := base.Hash().String()

	cases := []struct {
		name string
		req  DeltaRequest
		want string // substring of the error body
	}{
		{"missing base", DeltaRequest{
			Patch: wcetBump(0, 1, 120*rt.Microsecond),
		}, "missing base"},
		{"malformed hash", DeltaRequest{
			Base:  "not-a-hash",
			Patch: wcetBump(0, 1, 120*rt.Microsecond),
		}, "malformed taskset hash"},
		{"unknown base", DeltaRequest{
			Base:  baseHash,
			Patch: wcetBump(0, 1, 120*rt.Microsecond),
		}, "no retained state"},
		{"hash mismatch", DeltaRequest{
			Base:        "0000000000000000000000000000000000000000000000000000000000000000",
			BaseTaskset: jsonRoundTrip(t, base),
			Patch:       wcetBump(0, 1, 120*rt.Microsecond),
		}, "does not match"},
		{"non-incremental method", DeltaRequest{
			BaseTaskset: jsonRoundTrip(t, base),
			Patch:       wcetBump(0, 1, 120*rt.Microsecond),
			Methods:     []string{string(analysis.SPIN)},
		}, "no incremental form"},
		{"unknown method", DeltaRequest{
			BaseTaskset: jsonRoundTrip(t, base),
			Patch:       wcetBump(0, 1, 120*rt.Microsecond),
			Methods:     []string{"nope"},
		}, "unknown method"},
	}
	for _, tc := range cases {
		w := post(t, s, "/v1/analyze/delta", deltaBody(t, tc.req))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, w.Code, w.Body.String())
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: unmarshal error body: %v", tc.name, err)
			continue
		}
		if er.Code != http.StatusBadRequest || !strings.Contains(er.Error, tc.want) {
			t.Errorf("%s: error %+v, want code 400 containing %q", tc.name, er, tc.want)
		}
	}
}

// TestDeltaHostilePatch pins the structured patch rejection: an invalid
// patch is a 400 carrying the offending op index and a machine-readable
// code, with no analysis and no cache pollution.
func TestDeltaHostilePatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := testTaskset(t, 0)

	cases := []struct {
		name string
		ops  []model.PatchOp
		code string
	}{
		{"negative wcet", []model.PatchOp{
			{Op: model.OpSetWCET, Task: 0, Vertex: 1, Value: -5},
		}, "bad_value"},
		{"unknown task", []model.PatchOp{
			{Op: model.OpSetWCET, Task: 99, Vertex: 0, Value: 10},
		}, "unknown_task"},
		{"unknown op", []model.PatchOp{
			{Op: "explode", Task: 0},
		}, "unknown_op"},
		{"cycle", []model.PatchOp{
			{Op: model.OpAddEdge, Task: 0, From: 1, To: 0},
		}, "finalize"},
	}
	for _, tc := range cases {
		w := post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
			BaseTaskset: jsonRoundTrip(t, base),
			Patch:       model.Patch{Ops: tc.ops},
		}))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, w.Code, w.Body.String())
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: unmarshal error body: %v", tc.name, err)
			continue
		}
		if er.Patch == nil {
			t.Errorf("%s: no structured patch error in %s", tc.name, w.Body.String())
			continue
		}
		if er.Patch.Code != tc.code {
			t.Errorf("%s: patch code %q, want %q", tc.name, er.Patch.Code, tc.code)
		}
	}
}

// TestDeltaSharesResultCache pins the content-addressing invariant: a delta
// result lands in the same cache /v1/analyze reads, so a follow-up full
// analyze of the identical edited taskset is a pure cache hit.
func TestDeltaSharesResultCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	base := testTaskset(t, 0)
	p := wcetBump(0, 1, 120*rt.Microsecond)

	w := post(t, s, "/v1/analyze/delta", deltaBody(t, DeltaRequest{
		BaseTaskset: jsonRoundTrip(t, base),
		Patch:       p,
		Methods:     []string{string(analysis.DPCPpEP)},
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	analysesBefore := s.Metrics().Analyses

	patched, _, err := model.ApplyPatch(base, p)
	if err != nil {
		t.Fatal(err)
	}
	full := post(t, s, "/v1/analyze", analyzeBody(t, patched, string(analysis.DPCPpEP)))
	if full.Code != http.StatusOK {
		t.Fatalf("full analyze: status %d: %s", full.Code, full.Body.String())
	}
	if m := s.Metrics(); m.Analyses != analysesBefore {
		t.Errorf("full analyze of the patched set executed %d new analyses, want 0 (cache hit)",
			m.Analyses-analysesBefore)
	}
}
