package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// metricDef describes one reported metric. Bound is the share of the
// base median by which an end-to-end metric may worsen before a change
// counts as a regression. Guarded metrics are the ones BENCHMARK.json
// lists and the result line carries; the rest are printed, recorded in
// the result file and judged by the compare mode only. A metric is left
// unguarded when it can be absent or zero on a listed workload (a p99
// needs at least 1000 samples, the error rate is 0 on a healthy run) or
// when its run-to-run spread on a 2-vCPU virtual machine exceeds the
// largest bound the benchmark may set (run_visible_p50_ms on dashboard:
// 0.2 to 0.4 of its median over ten seeds).
type metricDef struct {
	Name    string
	Unit    string
	Better  string // "lower" or "higher"
	Bound   float64
	Guarded bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"runs_per_s", "1/s", "higher", 0.25, true},
	{"run_visible_p50_ms", "ms", "lower", 0.25, false},
	{"run_visible_p99_ms", "ms", "lower", 0.25, false},
	{"query_p50_ms", "ms", "lower", 0.25, true},
	{"query_p99_ms", "ms", "lower", 0.25, false},
	{"queries_per_s", "1/s", "higher", 0.25, true},
	{"error_rate", "ratio", "lower", 0, false},
	{"heap_mb", "MB", "lower", 0.15, true},
}

// perLayer are the traced-mode metrics, named <module>.<what>. The
// guarded ones are present on every workload.
var perLayer = []metricDef{
	{"service.submit_ms", "ms", "lower", 0, false},
	{"service.queue_wait_ms", "ms", "lower", 0, true},
	{"service.watch_lag_ms", "ms", "lower", 0, true},
	{"service.query_overhead_ms", "ms", "lower", 0, true},
	{"service.cache_hits", "count", "higher", 0, true},
	{"service.cache_misses", "count", "lower", 0, true},
	{"service.cache_hit_ratio", "ratio", "higher", 0, false},
	{"core.preflight_ms", "ms", "lower", 0, true},
	{"core.run_ms", "ms", "lower", 0, true},
	{"core.concretize_ms", "ms", "lower", 0, true},
	{"core.build_ms", "ms", "lower", 0, true},
	{"core.schedule_ms", "ms", "lower", 0, true},
	{"core.extract_ms", "ms", "lower", 0, true},
	{"core.append_ms", "ms", "lower", 0, true},
	{"buildsys.cache_hit_ratio", "ratio", "higher", 0, true},
	{"perflog.append_ms", "ms", "lower", 0, true},
	{"perflog.append_p99_ms", "ms", "lower", 0, false},
	{"perflog.entries_per_commit", "count", "higher", 0, true},
	{"perflog.fsync_ms", "ms", "lower", 0, true},
	{"perfstore.sync_ms", "ms", "lower", 0, true},
	{"perfstore.select_ms", "ms", "lower", 0, true},
	{"perfstore.aggregate_ms", "ms", "lower", 0, true},
	{"perfstore.regressions_ms", "ms", "lower", 0, true},
	{"perfstore.open_ms", "ms", "lower", 0, true},
	{"perfstore.bytes_parsed", "count", "lower", 0, true},
	{"perfstore.sealed_entries", "count", "higher", 0, true},
	{"perfstore.files", "count", "lower", 0, true},
	{"eventbus.dropped", "count", "lower", 0, true},
	{"go.gc_cycles", "count", "lower", 0, true},
	{"go.gc_pause_ms", "ms", "lower", 0, true},
}

// overheadName names the traced-minus-untraced difference of an
// end-to-end metric, reported in traced mode.
func overheadName(m string) string { return "overhead." + m }

// metricValue is one reported figure; N is the sample count behind a
// timing or rate.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one benchmark run's record, written as a result file.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Started     time.Time              `json:"started"`
	InputDigest string                 `json:"input_digest"`
	Env         environment            `json:"env"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Misses      []string               `json:"misses,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Layers      map[string]metricValue `json:"layers,omitempty"`
	Overhead    map[string]metricValue `json:"overhead,omitempty"`
}

// line is the last line of standard output: the guarded metrics of the
// run's mode.
func (r *result) line() ([]byte, error) {
	out := map[string]metricValue{}
	if r.Trace {
		for _, d := range perLayer {
			if v, ok := r.Layers[d.Name]; ok && d.Guarded {
				out[d.Name] = metricValue{Value: v.Value, Unit: v.Unit}
			}
		}
		for _, d := range endToEnd {
			if v, ok := r.Overhead[overheadName(d.Name)]; ok && d.Guarded {
				out[overheadName(d.Name)] = metricValue{Value: v.Value, Unit: v.Unit}
			}
		}
	} else {
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; ok && d.Guarded {
				out[d.Name] = metricValue{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
}

// report prints the human-readable table: every metric by name and
// unit with its sample count, and "absent" where a metric does not
// apply or lacks samples.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v  inputs %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.InputDigest[:16])
	fmt.Fprintf(w, "env: git %s dirty=%s  %s  nproc=%d GOMAXPROCS=%d  kernel %s  binary %s\n",
		r.Env.GitSHA, r.Env.GitDirty, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Kernel, short(r.Env.BinarySHA256))
	table := func(title string, defs []metricDef, vals map[string]metricValue, prefix string) {
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			name := prefix + d.Name
			if v, ok := vals[name]; ok && v.N > 0 {
				fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
			} else if ok {
				fmt.Fprintf(w, "  %-32s %14.4f %-6s\n", name, v.Value, v.Unit)
			} else {
				fmt.Fprintf(w, "  %-32s %14s %-6s\n", name, "absent", d.Unit)
			}
		}
	}
	table("end-to-end:", endToEnd, r.Metrics, "")
	if r.Trace {
		table("per-layer:", perLayer, r.Layers, "")
		table("tracing overhead (traced - untraced):", endToEnd, r.Overhead, "overhead.")
	}
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, m := range r.Misses {
		fmt.Fprintf(w, "  miss: %s\n", m)
	}
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// write stores the result as <dir>/<workload>-s<seed>-t<trace>-<ns>.json.
func (r *result) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", r.Workload, r.Seed, trace, r.Started.UnixNano()))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// environment records where a result came from (SNIPPETS.md Snippet 1:
// commit, toolchain, machine shape and the binary's checksum). Results
// are only compared across equal machine shapes and toolchains.
type environment struct {
	GitSHA       string `json:"git_sha"`
	GitDirty     string `json:"git_dirty"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Kernel       string `json:"kernel"`
	BinarySHA256 string `json:"binary_sha256"`
}

// machineKey is the part of the environment two compared result sets
// must share.
func (e environment) machineKey() string {
	return fmt.Sprintf("%s %s/%s nproc=%d gomaxprocs=%d kernel=%s",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.Kernel)
}

// captureEnv reads the commit from the build's VCS stamp ("unknown"
// when built outside a git checkout) and hashes the running binary.
func captureEnv() environment {
	e := environment{
		GitSHA:     "unknown",
		GitDirty:   "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitSHA = s.Value
			case "vcs.modified":
				e.GitDirty = s.Value
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			e.BinarySHA256 = hex.EncodeToString(sum[:])
		}
	}
	return e
}

// tally counts operations and failures: non-2xx responses, failed runs
// and correctness-check misses all count as failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	misses    []string
}

// maxMisses bounds the miss messages kept per run; the count is exact.
const maxMisses = 20

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) miss(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.misses) < maxMisses {
		t.misses = append(t.misses, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and returns its verdict.
func (t *tally) check(pass bool, format string, args ...any) bool {
	if pass {
		t.ok()
	} else {
		t.miss(format, args...)
	}
	return pass
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
