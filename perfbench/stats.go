package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled returns xs multiplied by f (nanoseconds to microseconds, say).
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runtimeWindow measures the Go runtime over one timed phase: the peak
// live heap, sampled every few milliseconds, and the GC CPU and allocation
// volume between start and stop.
type runtimeWindow struct {
	start   []metrics.Sample
	begin   time.Time
	stopped chan struct{}
	done    sync.WaitGroup
	peak    atomic.Uint64
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// startRuntimeWindow begins a window; stop must be called to end its
// sampling goroutine.
func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{start: readRuntime(), begin: time.Now(), stopped: make(chan struct{})}
	w.peak.Store(w.start[0].Value.Uint64())
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		live := []metrics.Sample{{Name: runtimeNames[0]}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopped:
				return
			case <-tick.C:
				metrics.Read(live)
				w.notePeak(live[0].Value.Uint64())
			}
		}
	}()
	return w
}

func (w *runtimeWindow) notePeak(v uint64) {
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// takePeakMB returns the peak live heap since the window started or the
// last call, and starts a new sub-window at the current live heap.
func (w *runtimeWindow) takePeakMB() float64 {
	live := []metrics.Sample{{Name: runtimeNames[0]}}
	metrics.Read(live)
	return float64(max(w.peak.Swap(live[0].Value.Uint64()), live[0].Value.Uint64())) / (1 << 20)
}

// runtimeStats is what one window observed.
type runtimeStats struct {
	peakHeapMB  float64
	gcCPURatio  float64
	allocMBperS float64
}

func (w *runtimeWindow) stop() runtimeStats {
	close(w.stopped)
	w.done.Wait()
	end := readRuntime()
	secs := time.Since(w.begin).Seconds()
	w.notePeak(end[0].Value.Uint64())
	return runtimeStats{
		peakHeapMB: float64(w.peak.Load()) / (1 << 20),
		gcCPURatio: ratio(end[1].Value.Float64()-w.start[1].Value.Float64(),
			end[2].Value.Float64()-w.start[2].Value.Float64()),
		allocMBperS: ratio(float64(end[3].Value.Uint64()-w.start[3].Value.Uint64())/(1<<20), secs),
	}
}

// provenance identifies the machine, toolchain and code a result came from,
// so results from different machines are never compared as one.
func provenance(root string) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit(root),
		"source_digest": sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the repository's .git directory without
// running git; a checkout without .git reports "unknown" and relies on
// source_digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (paths
// and contents, in walk order), identifying the code even where no git
// metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
