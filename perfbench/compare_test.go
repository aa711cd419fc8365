package main

import (
	"os"
	"path/filepath"
	"testing"
)

var testEnv = environment{GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2, Kernel: "k", BinarySHA256: "aaa"}

func results(env environment, metric string, vals []float64) []*result {
	var out []*result
	for i, v := range vals {
		out = append(out, &result{
			Workload: "ingest", Seed: uint64(i + 1), Env: env,
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "1/s"}},
		})
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	changeEnv := testEnv
	changeEnv.BinarySHA256 = "bbb"
	cases := []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"faster", base, scale(base, 1.3), verdictImproved},
		{"same", base, scale(base, 1.001), verdictWithin},
		{"small loss inside bound", base, scale(base, 0.9), verdictWithin},
		{"loss beyond bound", base, scale(base, 0.7), verdictWorse},
		{"noise wider than bound", noisy, scale(noisy, 0.95), verdictUnresolved},
		{"too few runs", base[:2], base[:2], verdictUnresolved},
	}
	for _, c := range cases {
		js, err := compareSets(results(testEnv, "runs_per_s", c.base), results(changeEnv, "runs_per_s", c.change))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got string
		for _, j := range js {
			if j.Metric == "runs_per_s" {
				got = j.Verdict
			}
		}
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Lower-is-better metrics flip the direction of gains and losses.
func TestCompareLowerIsBetter(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	mk := func(vals []float64) []*result { return results(testEnv, "query_p50_ms", vals) }
	js, err := compareSets(mk(base), mk(scale(base, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range js {
		if j.Metric == "query_p50_ms" && j.Verdict != verdictImproved {
			t.Errorf("halved latency judged %q", j.Verdict)
		}
	}
	js, _ = compareSets(mk(base), mk(scale(base, 1.5)))
	for _, j := range js {
		if j.Metric == "query_p50_ms" && j.Verdict != verdictWorse {
			t.Errorf("latency up 50%% judged %q", j.Verdict)
		}
	}
}

func TestCompareRefusesMixedEnvironments(t *testing.T) {
	vals := []float64{1, 2, 3}
	other := testEnv
	other.NumCPU = 8
	if _, err := compareSets(results(testEnv, "runs_per_s", vals), results(other, "runs_per_s", vals)); err == nil {
		t.Error("results from different machines were paired")
	}
	mixed := results(testEnv, "runs_per_s", vals)
	mixed[1].Env.BinarySHA256 = "ccc"
	if _, err := compareSets(mixed, results(testEnv, "runs_per_s", vals)); err == nil {
		t.Error("a side mixing binaries was accepted")
	}
}

// Result files written by a run load back for comparison.
func TestResultFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, r := range results(testEnv, "runs_per_s", []float64{5, 6, 7}) {
		if _, err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := loadResults(dir)
	if err != nil || len(rs) != 3 {
		t.Fatalf("loaded %d results: %v", len(rs), err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte(`{"x":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadResults(dir); err == nil {
		t.Error("a non-result JSON file was accepted")
	}
}
