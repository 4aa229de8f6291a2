// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation from a single process and prints every metric by
// name with its unit, followed by one JSON result line:
//
//	python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	fig2-sweep  the paper's Fig. 2 acceptance sweep (2a-2d, five methods)
//	            through experiments.RunGrid; a closed batch.
//	admit-cold  distinct tasksets POSTed to /v1/analyze of an in-process
//	            server: every request misses every cache tier.
//	admit-warm  exact-body repeats, canonical-hash repeats and chained
//	            /v1/analyze/delta bumps over a hot set built in set-up.
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the run is split in two halves: an untraced run for
// the counters and client-side class latencies, then a single-goroutine
// traced pass over the same inputs that times each call into a layer's
// public API, prints per-layer self time and writes the spans to
// <out>/traces. Every run checks its outputs; any wrong result, failed
// request or workload-composition drift makes the run exit 1.
//
// The program reads the Fig. 2(a) golden from the repository checkout, so
// it runs from the repository root (or with --root pointing there).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric; the tables below are the names
// BENCHMARK.json lists, and every run emits every name of its table.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"taskgen.generate_us", "us"},
	{"taskgen.alloc_kb", "KiB"},
	{"taskgen.share", "ratio"},
	{"experiments.pool_efficiency", "ratio"},
	{"experiments.batch_p50_ms", "ms"},
	{"experiments.batch_p90_ms", "ms"},
	{"analysis.ep_us", "us"},
	{"analysis.en_us", "us"},
	{"analysis.spin_us", "us"},
	{"analysis.lpp_us", "us"},
	{"analysis.fedfp_us", "us"},
	{"analysis.ep_p99_us", "us"},
	{"analysis.alloc_kb", "KiB"},
	{"analysis.rounds", "count"},
	{"model.decode_us", "us"},
	{"model.finalize_us", "us"},
	{"model.hash_us", "us"},
	{"model.apply_patch_us", "us"},
	{"delta.apply_us", "us"},
	{"delta.alloc_kb", "KiB"},
	{"delta.reused_ratio", "ratio"},
	{"server.cold_us", "us"},
	{"server.cold_self_us", "us"},
	{"server.exact_hit_us", "us"},
	{"server.canonical_hit_us", "us"},
	{"server.delta_us", "us"},
	{"server.exact_hit_alloc_kb", "KiB"},
	{"class.exact_p50_ms", "ms"},
	{"class.canonical_p50_ms", "ms"},
	{"class.delta_p50_ms", "ms"},
	{"server.exact_hit_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.delta_hit_ratio", "ratio"},
	{"server.analyses_per_request", "count"},
	{"server.rejected", "count"},
	{"server.coalesced", "count"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.alloc_mb_per_s", "MB/s"},
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p90_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_backlog", "count"},
	{"loadgen.sent", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// result accumulates one run's metrics, operation counts and check
// failures.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	info      map[string]any
}

func newResult() *result {
	return &result{values: make(map[string]float64), info: make(map[string]any)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// notApplicable reports 0 for the per-layer metrics under the given name
// prefixes that the workload never calls and has not set.
func (r *result) notApplicable(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if _, ok := r.values[m.name]; !ok && strings.HasPrefix(m.name, p) {
				r.values[m.name] = 0
			}
		}
	}
}

// problem records a correctness or composition failure: the run's result
// is then marked incorrect and the process exits 1.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// env is what a workload runs with.
type env struct {
	seed  int64
	root  string // repository root
	work  string // private scratch directory, removed when the run ends
	trace bool
	// budget is the untraced timed phase; in a traced run the traced pass
	// gets the same budget again.
	budget time.Duration
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// corruptReference flips one reference verdict, so the correctness
	// check must fail (self-test only).
	corruptReference bool
	log              io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env, *result) error{
	"fig2-sweep": runSweep,
	"admit-cold": runCold,
	"admit-warm": runWarm,
}

// maxRun bounds one invocation; past it the program exits 1.
const maxRun = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fig2-sweep, admit-cold or admit-warm")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 25, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
		root    = fs.String("root", ".", "repository root")
		out     = fs.String("out", ".bench_build", "directory for scratch files and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(*out, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	// An interrupted or overrunning run still removes its scratch files
	// and exits without a result line.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	watchdog := time.NewTimer(maxRun)
	defer watchdog.Stop()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
			return
		case sig := <-stop:
			fmt.Fprintf(stderr, "perfbench: %v\n", sig)
		case <-watchdog.C:
			fmt.Fprintf(stderr, "perfbench: still running after %v\n", maxRun)
		}
		os.RemoveAll(work)
		os.Exit(1)
	}()

	e := &env{
		seed:      *seed,
		root:      *root,
		work:      work,
		trace:     *trace == 1,
		budget:    time.Duration(*seconds) * time.Second,
		setupReps: 3,
		log:       stderr,
	}
	if e.trace {
		e.budget /= 2
	}
	r := newResult()
	r.info["workload"] = *name
	r.info["seed"] = *seed
	r.info["seconds"] = *seconds
	r.info["trace"] = *trace
	for k, v := range provenance(*root) {
		r.info[k] = v
	}
	if err := runner(e, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return report(stdout, r, e.trace)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable table and the JSON result line, and
// returns the exit code: 1 when any check failed.
func report(w io.Writer, r *result, traced bool) int {
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		if _, ok := r.values[m.name]; !ok {
			r.problem("metric %s was not measured", m.name)
		}
	}
	info, _ := json.Marshal(r.info)
	fmt.Fprintf(w, "provenance %s\n", info)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "%-30s %14.6g %s\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(table))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if v, ok := r.values[m.name]; ok {
				fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, m := range table {
		metrics[m.name] = jsonMetric{Value: r.values[m.name], Unit: m.unit}
	}
	correct := len(r.problems) == 0 && r.failed == 0
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// workers is the load and pool width every workload uses: one per CPU.
func workers() int { return runtime.GOMAXPROCS(0) }
