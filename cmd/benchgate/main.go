// Command benchgate runs the pinned benchmark suite and gates it against
// a committed snapshot, making the repository's performance trajectory
// part of its test surface.
//
//	benchgate run -out BENCH_7.json [-bench regex] [-count 5] [-benchtime 100x]
//	benchgate compare -baseline BENCH_7.json -current new.json
//	benchgate gate -baseline BENCH_7.json -out new.json
//
// "run" executes `go test -run ^$ -bench <regex> -benchmem -count N` in
// the current module, once per group of the pinned suite (or once for an
// explicit -bench), and writes the aggregated snapshot (median ns/op,
// minimum B/op and allocs/op per benchmark). "compare" gates one snapshot
// file against another. "gate" does both — CI's single step — exiting 1
// when any benchmark regresses beyond benchgate.DefaultThresholds: +50%
// ns/op, or +10% plus 2 allocs/op (see internal/benchgate for semantics).
//
// Refreshing the committed snapshot after an intentional change:
//
//	go run ./cmd/benchgate run -out BENCH_<pr>.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"

	"dpcpp/internal/benchgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchGroup is one `go test -bench` invocation: a benchmark regex, the
// fixed -benchtime iteration count it runs at, and the package it runs in
// (empty = the -pkg flag).
type benchGroup struct{ bench, benchtime, pkg string }

// defaultSuite pins the CI benchmark subset: the analysis hot path (the
// zero-allocation trajectory this gate exists for), the view enumeration
// engine under it, the instrumented variant that pins the per-stage
// observability overhead at zero extra allocations, the incremental
// delta path whose cache-hit-territory latency POST /v1/analyze/delta
// claims, taskset generation and decoding, the whole Fig. 2 sweep those
// layers compose into, and one /v1/analyze request from body read to
// encoded response, cold and as an exact-body cache hit. Fixed -benchtime
// iteration counts keep allocs/op deterministic; one sweep op takes about
// half a second, so the sweep group runs fewer of them.
var defaultSuite = []benchGroup{
	{"BenchmarkAnalysisMethods|BenchmarkPathEnumeration|BenchmarkInstrumentedAnalysis|BenchmarkDeltaAnalyze|BenchmarkTaskGeneration|BenchmarkDecodeTaskset", "100x", ""},
	{"BenchmarkFig2Sweep", "5x", ""},
	{"BenchmarkServerAnalyze/^(fig2a-cold|fig2a-hit|fig2ac-cold)$", "100x", "./internal/server"},
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: benchgate run|compare|gate [flags]")
		return 2
	}
	mode := args[0]
	fs := flag.NewFlagSet("benchgate "+mode, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "write the aggregated snapshot JSON here")
		baseline  = fs.String("baseline", "", "committed snapshot to gate against")
		current   = fs.String("current", "", "snapshot to gate (compare mode)")
		bench     = fs.String("bench", "", "benchmark regex passed to go test (default: the pinned suite)")
		count     = fs.Int("count", 5, "benchmark repetitions (median/min aggregated)")
		benchtime = fs.String("benchtime", "", "go test -benchtime value (default: 100x, or each pinned group's own)")
		pkg       = fs.String("pkg", ".", "package to benchmark (pinned groups that name their own package keep it)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	th := benchgate.DefaultThresholds()
	suite := defaultSuite
	if *bench != "" {
		suite = []benchGroup{{*bench, "100x", ""}}
	}
	if *benchtime != "" {
		suite = append([]benchGroup(nil), suite...)
		for i := range suite {
			suite[i].benchtime = *benchtime
		}
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 1
	}
	switch mode {
	case "run":
		snap, err := runSuite(suite, *pkg, *count, stderr)
		if err != nil {
			return fail(err)
		}
		return writeSnapshot(snap, *out, stdout, stderr)
	case "compare":
		base, err := readSnapshot(*baseline)
		if err != nil {
			return fail(err)
		}
		cur, err := readSnapshot(*current)
		if err != nil {
			return fail(err)
		}
		return gate(base, cur, th, stdout, stderr)
	case "gate":
		base, err := readSnapshot(*baseline)
		if err != nil {
			return fail(err)
		}
		cur, err := runSuite(suite, *pkg, *count, stderr)
		if err != nil {
			return fail(err)
		}
		if code := writeSnapshot(cur, *out, stdout, stderr); code != 0 {
			return code
		}
		return gate(base, cur, th, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "benchgate: unknown mode %q (want run, compare or gate)\n", mode)
		return 2
	}
}

// runSuite runs every group and merges their snapshots.
func runSuite(suite []benchGroup, pkg string, count int, stderr io.Writer) (*benchgate.Snapshot, error) {
	var snap *benchgate.Snapshot
	for _, g := range suite {
		p := g.pkg
		if p == "" {
			p = pkg
		}
		s, err := runBenchmarks(g.bench, g.benchtime, p, count, stderr)
		if err != nil {
			return nil, err
		}
		if snap == nil {
			snap = s
			continue
		}
		for name, r := range s.Benchmarks {
			snap.Benchmarks[name] = r
		}
	}
	return snap, nil
}

// runBenchmarks shells out to go test and parses the combined output.
// Benchmark progress streams to stderr so CI logs show liveness.
func runBenchmarks(bench, benchtime, pkg string, count int, stderr io.Writer) (*benchgate.Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", fmt.Sprint(count), pkg}
	fmt.Fprintf(stderr, "benchgate: go %s\n", args)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, stderr)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return benchgate.Parse(&buf)
}

func readSnapshot(path string) (*benchgate.Snapshot, error) {
	if path == "" {
		return nil, fmt.Errorf("missing snapshot path (-baseline/-current)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap benchgate.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return &snap, nil
}

func writeSnapshot(snap *benchgate.Snapshot, out string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := snap.Benchmarks[name]
		fmt.Fprintf(stdout, "%-60s %12.0f ns/op %10d B/op %8d allocs/op (%d runs)\n",
			name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Runs)
	}
	if out == "" {
		return 0
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 1
	}
	return 0
}

func gate(base, cur *benchgate.Snapshot, th benchgate.Thresholds, stdout, stderr io.Writer) int {
	regs := benchgate.Compare(base, cur, th)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "benchgate: %d benchmarks within thresholds\n", len(base.Benchmarks))
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(stderr, "benchgate: REGRESSION %s\n", r)
	}
	return 1
}
