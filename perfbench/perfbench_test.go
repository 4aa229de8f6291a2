package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyEnv runs a workload at the smallest size: a one-second budget.
func tinyEnv(t *testing.T, trace bool) *env {
	t.Helper()
	return &env{
		seed:      3,
		root:      "..",
		work:      t.TempDir(),
		trace:     trace,
		budget:    time.Second,
		setupReps: 3,
		log:       io.Discard,
	}
}

func runTiny(t *testing.T, name string, e *env) *result {
	t.Helper()
	r := newResult()
	r.info["workload"] = name
	if err := workloads[name](e, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, tinyEnv(t, true))
			for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if _, ok := r.values[m.name]; !ok {
					t.Errorf("metric %s not emitted", m.name)
				}
			}
			for _, m := range endToEnd {
				if r.values[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, r.values[m.name])
				}
			}
			if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Errorf("attempted %d, failed %d, problems %v", r.attempted, r.failed, r.problems)
			}
		})
	}
}

// TestResultLine runs the command end to end and checks the contract of
// its last output line.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "admit-warm", "--seed", "5", "--seconds", "1",
		"--trace", "0", "--root", "..", "--out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	if !strings.HasPrefix(lines[0], "provenance ") || !strings.Contains(lines[0], `"cpu_model"`) {
		t.Errorf("first line %q is not the provenance record", lines[0])
	}
}

func TestSweepDigestRepeatsForOneSeed(t *testing.T) {
	a := runTiny(t, "fig2-sweep", tinyEnv(t, false))
	b := runTiny(t, "fig2-sweep", tinyEnv(t, false))
	if a.info["curve_digest"] != b.info["curve_digest"] || a.info["curve_digest"] == nil {
		t.Fatalf("digests %v and %v", a.info["curve_digest"], b.info["curve_digest"])
	}
	e := tinyEnv(t, false)
	e.seed++
	if c := runTiny(t, "fig2-sweep", e); c.info["curve_digest"] == a.info["curve_digest"] {
		t.Fatalf("seeds %d and %d gave the same curves", e.seed-1, e.seed)
	}
}

func TestCorruptedReferenceFailsRun(t *testing.T) {
	for _, name := range []string{"admit-cold", "admit-warm"} {
		t.Run(name, func(t *testing.T) {
			e := tinyEnv(t, false)
			e.corruptReference = true
			r := runTiny(t, name, e)
			if r.failed == 0 || len(r.problems) == 0 {
				t.Fatalf("corrupted reference passed: failed %d, problems %v", r.failed, r.problems)
			}
			if code := report(io.Discard, r, false); code == 0 {
				t.Fatal("a failed check must exit non-zero")
			}
		})
	}
}

// TestStallCountsFromDueTime stalls the first request for 300ms behind a
// single connection: requests due during the stall leave on time, yet their
// latency includes the wait, because it is measured from when they were
// due.
func TestStallCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	shots := openLoop(20, 100, func(i int) {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	// Request 10 is due 100ms in, while the first still holds the only
	// connection until 300ms.
	s := shots[10]
	if s.late > 50*time.Millisecond {
		t.Fatalf("generator itself was late by %v", s.late)
	}
	if s.latency < stall-100*time.Millisecond-20*time.Millisecond {
		t.Fatalf("request due during the stall reports %v, want about %v", s.latency, stall-100*time.Millisecond)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
