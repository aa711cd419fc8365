package main

import (
	"encoding/json"
	"os"
	"testing"
)

// listedWorkloads are the workloads BENCHMARK.json names. recent is left
// out: it runs no benchmark runs, so the guarded runs_per_s would be
// absent from its result line.
var listedWorkloads = []string{"ingest", "dashboard"}

// BENCHMARK.json names exactly the listed workloads and the guarded
// metrics this program reports, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(listedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, listedWorkloads)
	}
	for i, w := range names {
		if i < len(listedWorkloads) && w != listedWorkloads[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w, listedWorkloads[i])
		}
	}
	var wantE2E, wantLayer []metric
	for _, d := range endToEnd {
		if d.Guarded {
			bound := d.Bound
			wantE2E = append(wantE2E, metric{d.Name, d.Unit, d.Better, &bound})
		}
	}
	for _, d := range perLayer {
		if d.Guarded {
			wantLayer = append(wantLayer, metric{d.Name, d.Unit, d.Better, nil})
		}
	}
	for _, d := range endToEnd {
		if d.Guarded {
			wantLayer = append(wantLayer, metric{overheadName(d.Name), d.Unit, d.Better, nil})
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program guards %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better ||
				(g.Bound == nil) != (w.Bound == nil) || (g.Bound != nil && *g.Bound != *w.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, wantE2E)
	same("per_layer", b.PerLayer, wantLayer)
}
