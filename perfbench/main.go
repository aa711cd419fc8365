// Command perfbench is exabench's end-to-end benchmark. It boots benchd
// in-process from the public service API, drives one workload over
// loopback with at most two client connections, checks the outputs,
// and prints every end-to-end metric (or, with --trace 1, the per-layer
// split and the tracing overhead). The last line of standard output is
// one JSON object; a result file with the environment record is written
// under --out.
//
//	perfbench --workload ingest|dashboard|recent --seed N --seconds S --trace 0|1
//	perfbench compare [--verbose] BASE CHANGE   (directories or files of results)
//
// Exit status: 0 on a correct run, 1 when a correctness check missed,
// 2 when the benchmark could not run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/platform"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ingest, dashboard or recent")
	seed := fs.Uint64("seed", 1, "seed all generated inputs derive from")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 repeats the workload traced and reports the per-layer split")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for daemons' trees")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	switch *workload {
	case "ingest", "dashboard", "recent":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want ingest, dashboard or recent)\n", *workload)
		return 2
	}
	// The host-bandwidth probe runs once per process (sync.Once) and
	// costs about as much as a boot; running it before any timed boot
	// keeps it out of every setup_s sample alike.
	platform.HostProcessor()

	res := &result{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Started: time.Now(), Env: captureEnv(),
	}
	// A traced run measures the workload twice, untraced then traced,
	// each for half the time, so both modes take about as long.
	measure := time.Duration(*seconds) * time.Second
	if res.Trace {
		measure /= 2
	}
	untraced := newPass(*workload, *seed, measure, false)
	if err := runPass(untraced, *work); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	res.InputDigest = untraced.in.Digest
	res.Metrics = untraced.endToEnd()
	passes := []*pass{untraced}
	if res.Trace {
		traced := newPass(*workload, *seed, measure, true)
		if err := runPass(traced, *work); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *workload, err)
			return 2
		}
		if traced.in.Digest != res.InputDigest {
			fmt.Fprintln(stderr, "perfbench: traced pass generated different inputs from the same seed")
			return 2
		}
		res.Layers = traced.perLayer()
		res.Overhead = map[string]metricValue{}
		tm := traced.endToEnd()
		for name, v := range res.Metrics {
			if t, ok := tm[name]; ok {
				res.Overhead[overheadName(name)] = metricValue{Value: t.Value - v.Value, Unit: v.Unit}
			}
		}
		passes = append(passes, traced)
	}
	for _, p := range passes {
		res.Attempted += p.t.attempted
		res.Failed += p.t.failed
		res.Misses = append(res.Misses, p.t.misses...)
	}
	res.Correct = res.Failed == 0
	res.report(stdout)
	if path, err := res.write(*out); err != nil {
		fmt.Fprintf(stderr, "perfbench: write result: %v\n", err)
		return 2
	} else {
		fmt.Fprintf(stdout, "result file: %s\n", path)
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runPass runs p in a fresh scratch directory under root and removes
// it, flushing the removal so that the next run does not pay for it.
func runPass(p *pass, root string) error {
	dir, err := newWorkDir(root, p.workload)
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	p.dir = dir
	return p.run()
}
