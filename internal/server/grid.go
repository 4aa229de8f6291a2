package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// maxGridSamples caps the per-point sample count a single request may ask
// for; larger sweeps belong in batches of requests (and would be rejected
// by admission anyway on most configurations).
const maxGridSamples = 10000

// handleGrid streams one scenario's acceptance curve as NDJSON: one
// GridPoint line the moment the pool completes each utilization point
// (completion order, not point order — lines carry their point index), and
// a trailing GridDone line. Seeding is identical to the CLI sweeps
// (experiments.SampleSeed), so a streamed curve matches `schedtest -fig`
// bit-for-bit for the same seed and sample count.
//
// Query parameters:
//
//	scenario  required: a Fig. 2 subplot ("2a".."2d") or "g<i>" for
//	          index i of the 216-scenario grid
//	n         samples per utilization point (default 25)
//	seed      base seed (default 2020)
//	methods   comma-separated method subset (default all)
//	pathcap   EP path enumeration cap (default: analysis default)
//	timeout_ms  optional stream budget in milliseconds; the server-wide
//	          -request-timeout deliberately does not apply to grid streams
//	          (long curves are legitimate), so only an explicit parameter
//	          bounds one
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	q := r.URL.Query()
	scen, err := parseScenario(q.Get("scenario"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := intParam(q.Get("n"), 25)
	if err != nil || n < 1 || n > maxGridSamples {
		writeError(w, http.StatusBadRequest, "invalid n %q (1..%d)", q.Get("n"), maxGridSamples)
		return
	}
	seed, err := int64Param(q.Get("seed"), 2020)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid seed %q", q.Get("seed"))
		return
	}
	pathCap, err := intParam(q.Get("pathcap"), 0)
	if err != nil || pathCap < 0 {
		writeError(w, http.StatusBadRequest, "invalid pathcap %q", q.Get("pathcap"))
		return
	}
	timeoutMS, err := int64Param(q.Get("timeout_ms"), 0)
	if err != nil || timeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "invalid timeout_ms %q", q.Get("timeout_ms"))
		return
	}
	var methodNames []string
	if mq := q.Get("methods"); mq != "" {
		methodNames = strings.Split(mq, ",")
	}
	ms, opts, ok := s.validateOptions(w, analysis.ParseMethods, methodNames, pathCap, "")
	if !ok {
		return
	}

	scen = scen.DefaultStructure()
	points := taskgen.UtilizationPoints(scen.M)
	jobs := len(points) * n
	if !s.admit(w, jobs) {
		return
	}
	defer s.engine.release(jobs)

	// The sweep hands each point's tally to the streaming loop when its
	// last sample lands. A canceled stream stops paying for analyses (the
	// sweep skips the work) but still drains every index, so admission
	// accounting stays exact.
	done := make(chan *experiments.Tally, len(points))
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()

	go func() {
		defer close(done)
		sw := experiments.Sweep{
			Scenarios: []taskgen.Scenario{scen},
			Methods:   ms,
			Samples:   n,
			Seed:      seed,
			Workers:   s.cfg.Workers,
		}
		// Generation failures reach the client per point (GenFailures),
		// so the sweep's summary error has nothing to add.
		_ = sw.Run(ctx, s.engine.sweepVerdicts(ctx, ms, opts),
			func(_ int, t *experiments.Tally) { done <- t })
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scenario", scen.Name())
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	var writeErr error
	for t := range done {
		// After the first failed write the client is gone: keep draining
		// completions (the sweep still owes the admission release its
		// drain), but stop encoding and flushing to a dead connection.
		if writeErr != nil {
			continue
		}
		// A point cut short (cancel/timeout before or during its samples)
		// holds an undercounted curve; never stream it.
		if !t.Complete() {
			continue
		}
		// Each NDJSON line re-arms the write deadline: the stream may run
		// for minutes, but any single stalled write still times out.
		s.bumpWriteDeadline(w)
		if writeErr = enc.Encode(gridPoint(t, scen.M, ms)); writeErr != nil {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
		streamed++
	}
	// A timed-out or canceled stream ends without the GridDone line —
	// truncation is the signal clients key on.
	if ctx.Err() == nil && writeErr == nil {
		enc.Encode(GridDone{Done: true, Points: streamed})
	}
}

// sweepVerdicts is the per-sample callback of every server-side sweep
// (the grid stream and sweep jobs): each method's verdict through the
// engine, so sweeps share the result cache, the store and the worker
// slots with interactive requests. It stays on the full analysis path
// rather than analysis.SchedulableWith's verdict-only one, because every
// result enters the cache that /v1/analyze serves WCRTs from. An engine
// error (ctx ended while the analysis was queued) abandons the sample.
func (e *engine) sweepVerdicts(ctx context.Context, ms []analysis.Method,
	opts analysis.Options) func(int, *model.Taskset, []bool) error {

	return func(_ int, ts *model.Taskset, ok []bool) error {
		h := ts.Hash()
		for i, m := range ms {
			mr, err := e.analyze(ctx, h, ts, m, opts, false)
			if err != nil {
				return err
			}
			ok[i] = mr.Schedulable
		}
		return nil
	}
}

// gridPoint renders a point's tally, swept with methods ms on m cores, as
// the wire form.
func gridPoint(t *experiments.Tally, m int, ms []analysis.Method) *GridPoint {
	gp := &GridPoint{
		Point:       t.Point,
		Utilization: t.Utilization,
		Normalized:  t.Utilization / float64(m),
		Total:       t.Total(),
		GenFailures: t.GenFailures(),
		Accepted:    make(map[string]int, len(ms)),
	}
	for i, meth := range ms {
		gp.Accepted[string(meth)] = t.Accepted(i)
	}
	return gp
}

// parseScenario resolves the scenario query parameter: a Fig. 2 subplot
// name or g<i> for the full grid.
func parseScenario(name string) (taskgen.Scenario, error) {
	switch {
	case name == "":
		return taskgen.Scenario{}, fmt.Errorf("missing scenario parameter")
	case strings.HasPrefix(name, "g"):
		i, err := strconv.Atoi(name[1:])
		grid := taskgen.Grid()
		if err != nil || i < 0 || i >= len(grid) {
			return taskgen.Scenario{}, fmt.Errorf("invalid grid scenario %q (g0..g%d)", name, len(grid)-1)
		}
		return grid[i], nil
	default:
		return taskgen.Fig2Scenario(name)
	}
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func int64Param(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
