package main

import (
	"reflect"
	"testing"

	"repro/internal/perflog"
	"repro/internal/perfstore"
)

var workloads = []string{"ingest", "dashboard", "recent"}

// The same seed gives identical inputs and digest; another seed differs.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, nil)
		c, _ := generate(w, 8, nil)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w, a.Digest)
		}
	}
	if _, err := generate("nope", 1, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The digest covers the history handed to the daemon, line by line.
func TestDigestCoversHistory(t *testing.T) {
	var lines []string
	in, err := generate("recent", 3, func(system, benchmark string, es []*perflog.Entry) error {
		for _, e := range es {
			lines = append(lines, e.Line())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != in.Entries || in.Entries != recentPerFile*len(suiteBenchmarks)*len(suiteSystems) {
		t.Fatalf("sink saw %d lines, inputs report %d", len(lines), in.Entries)
	}
	again, _ := generate("recent", 3, nil)
	if again.Digest != in.Digest {
		t.Error("digest depends on whether history is written")
	}
}

func TestWorkloadShapes(t *testing.T) {
	in, _ := generate("ingest", 1, nil)
	reps := 0
	for _, r := range in.Runs {
		if r.Repetitions == 3 && r.Warmup == 1 {
			reps++
		}
	}
	targets := len(suiteBenchmarks) * len(suiteSystems)
	if len(in.Runs) != targets*mixPerTarget || reps != len(in.Runs)/repeatShare {
		t.Errorf("ingest mix: %d runs, %d with repetitions; want %d, %d", len(in.Runs), reps, targets*mixPerTarget, len(in.Runs)/repeatShare)
	}
	if n := len(runSet(in.Runs)); n != 2*targets {
		t.Errorf("ingest mix has %d distinct submissions, want every target with and without repetitions (%d)", n, 2*targets)
	}

	const queryCacheSize = 256 // benchd's default query cache
	dash, _ := generate("dashboard", 1, nil)
	if dash.Entries != dashSystems*dashBenchmarks*dashPerFile || dash.Files != dashSystems*dashBenchmarks {
		t.Errorf("dashboard history: %d entries in %d files", dash.Entries, dash.Files)
	}
	if n := distinctPaths(t, dash.Panel); n <= queryCacheSize {
		t.Errorf("dashboard panel has %d distinct queries; must exceed the %d-entry cache", n, queryCacheSize)
	}
	perBenchmark, systems := map[string]int{}, map[string]bool{}
	for _, s := range dash.Schedules {
		perBenchmark[s.Benchmark]++
		systems[s.System] = true
	}
	if len(systems) != len(suiteSystems) || len(perBenchmark) != len(suiteBenchmarks) ||
		perBenchmark[suiteBenchmarks[0].name] != len(suiteSystems)/len(suiteBenchmarks) {
		t.Errorf("dashboard schedules are not one per system, benchmarks evenly: %v", dash.Schedules)
	}
	rec, _ := generate("recent", 1, nil)
	if n := distinctPaths(t, rec.Panel); n > queryCacheSize {
		t.Errorf("recent panel has %d distinct queries; must fit the %d-entry cache", n, queryCacheSize)
	}
}

func distinctPaths(t *testing.T, panel []panelQuery) int {
	t.Helper()
	seen := map[string]bool{}
	for _, p := range panel {
		if _, err := perfstore.ParseQuery(p.Raw); err != nil {
			t.Errorf("panel %s: %v", p.Path(), err)
		}
		seen[p.Path()] = true
	}
	return len(seen)
}

func runSet(rs []runSpec) map[runSpec]bool {
	m := map[runSpec]bool{}
	for _, r := range rs {
		m[r] = true
	}
	return m
}
