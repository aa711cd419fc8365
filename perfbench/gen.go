package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"net/url"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// The suite's three benchmarks with the FOMs they report, and the six
// simulated systems, as (target, perflog system, partition). The
// isambard-macs target names its partition because the bare system
// name is ambiguous and rejected.
var (
	suiteBenchmarks = []struct {
		name string
		foms []string
		unit string
		base float64
	}{
		{"babelstream-omp", []string{"copy_mbps", "mul_mbps", "add_mbps", "triad_mbps", "dot_mbps"}, "MB/s", 250000},
		{"hpcg-original", []string{"gflops"}, "GF/s", 30},
		{"hpgmg-fv", []string{"l0", "l1", "l2"}, "MDOF/s", 80},
	}
	suiteSystems = []struct{ target, system, partition string }{
		{"archer2", "archer2", "compute"},
		{"csd3", "csd3", "cascadelake"},
		{"cosma8", "cosma8", "compute"},
		{"isambard-macs:cascadelake", "isambard-macs", "cascadelake"},
		{"noctua2", "noctua2", "milan"},
		{"isambard-xci", "isambard-xci", "compute"},
	}
)

// Sizes of the generated inputs. The dashboard history is wide (many
// files, few entries each) and sealed; the recent history is deep and
// narrow (the 18 real files). The dashboard panel mix is larger than
// benchd's 256-entry query cache, the recent mix fits in it.
const (
	dashSystems      = 40
	dashBenchmarks   = 50
	dashPerFile      = 50
	dashPanelSize    = 768
	recentPerFile    = 5000
	recentAggregates = 12
	mixPerTarget     = 16 // runs per benchmark × system in a run mix
	repeatShare      = 4  // one run in repeatShare uses repetitions=3, warmup=1
)

// historyStart anchors every generated timestamp, so histories and the
// since= windows over them are a function of the seed alone.
var historyStart = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// runSpec is one run submission.
type runSpec struct {
	Benchmark   string `json:"benchmark"`
	System      string `json:"system"`
	Repetitions int    `json:"repetitions,omitempty"`
	Warmup      int    `json:"warmup,omitempty"`
}

// panelQuery is one dashboard panel: a filtered select, a group-by
// aggregate, or a regression scan. Raw is the query string shared by
// the HTTP request and the direct perfstore call.
type panelQuery struct {
	Kind      string // "select", "aggregate" or "regressions"
	Raw       string
	Tolerance float64
	Window    int
}

// Path is the request path for the panel.
func (p panelQuery) Path() string {
	if p.Kind == "regressions" {
		return fmt.Sprintf("/v1/regressions?%s&tolerance=%g&window=%d", p.Raw, p.Tolerance, p.Window)
	}
	return "/v1/query?" + p.Raw
}

// inputs is everything a workload hands the daemon, generated from the
// seed alone. Digest covers all of it, including every history line.
type inputs struct {
	Digest    string
	Runs      []runSpec
	Schedules []runSpec
	Panel     []panelQuery
	Files     int
	Entries   int
}

// sink receives one generated perflog file.
type sink func(system, benchmark string, entries []*perflog.Entry) error

// stream returns an independent generator for one named input stream,
// so adding a stream never shifts the values of another.
func stream(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// generate builds the workload's inputs from seed, writing history files
// through write (nil for a workload without history).
func generate(workload string, seed uint64, write sink) (*inputs, error) {
	in := &inputs{}
	d := sha256.New()
	fmt.Fprintf(d, "workload=%s\n", workload)
	var err error
	switch workload {
	case "ingest":
		in.Runs = runMix(stream(seed, "runs"))
	case "dashboard":
		err = dashboardHistory(stream(seed, "history"), in, d, write)
		in.Schedules = scheduleMix(stream(seed, "schedules"))
		in.Panel = dashboardPanel(stream(seed, "panel"))
	case "recent":
		err = recentHistory(stream(seed, "history"), in, d, write)
		in.Panel = recentPanel(stream(seed, "panel"))
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest, dashboard or recent)", workload)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range in.Runs {
		fmt.Fprintf(d, "run %+v\n", r)
	}
	for _, s := range in.Schedules {
		fmt.Fprintf(d, "schedule %+v\n", s)
	}
	for _, p := range in.Panel {
		fmt.Fprintf(d, "panel %s\n", p.Path())
	}
	in.Digest = hex.EncodeToString(d.Sum(nil))
	return in, nil
}

// runMix is mixPerTarget runs of each of the 3 benchmarks × 6 systems,
// a fixed share of each using the repetition protocol, in seeded order.
// The seed orders the work but does not change how much there is, so
// run-to-run spread measures the daemon, not the draw.
func runMix(r *rand.Rand) []runSpec {
	var runs []runSpec
	for _, b := range suiteBenchmarks {
		for _, s := range suiteSystems {
			for i := 0; i < mixPerTarget; i++ {
				spec := runSpec{Benchmark: b.name, System: s.target}
				if i < mixPerTarget/repeatShare {
					spec.Repetitions, spec.Warmup = 3, 1
				}
				runs = append(runs, spec)
			}
		}
	}
	r.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

// scheduleMix gives the dashboard one schedule per system, each suite
// benchmark on the same number of them; the seed decides which system
// runs which benchmark and the order of registration. The run cost of
// the three benchmarks differs, so a free draw would move the
// visibility latency with the seed.
func scheduleMix(r *rand.Rand) []runSpec {
	var out []runSpec
	for i, k := range r.Perm(len(suiteSystems)) {
		out = append(out, runSpec{
			Benchmark: suiteBenchmarks[i%len(suiteBenchmarks)].name,
			System:    suiteSystems[k].target,
		})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// historyEntry is one synthetic past run: each FOM is base with a few
// percent of seeded noise, and one run in fifty failed.
func historyEntry(r *rand.Rand, t time.Time, bench, system, partition string, foms []string, unit string, base float64, job int) *perflog.Entry {
	e := &perflog.Entry{
		Time:      t,
		Benchmark: bench,
		System:    system,
		Partition: partition,
		Environ:   "gcc",
		Spec:      bench + "%gcc",
		JobID:     job,
		Result:    "pass",
		FOMs:      map[string]fom.Value{},
		Extra: map[string]string{
			"num_tasks":  fmt.Sprint(1 << r.IntN(8)),
			"build_hash": fmt.Sprintf("%016x", r.Uint64()),
		},
	}
	if r.IntN(50) == 0 {
		e.Result = "fail"
	}
	for _, name := range foms {
		e.FOMs[name] = fom.Value{Name: name, Value: base * (1 + 0.03*r.NormFloat64()), Unit: unit}
	}
	return e
}

// emit hashes one file's lines into the digest and hands it to write.
func emit(in *inputs, d hash.Hash, write sink, system, bench string, es []*perflog.Entry) error {
	for _, e := range es {
		d.Write([]byte(e.Line()))
		d.Write([]byte{'\n'})
	}
	in.Files++
	in.Entries += len(es)
	if write == nil {
		return nil
	}
	return write(system, bench, es)
}

func dashName(sys, bench int) (string, string) {
	return fmt.Sprintf("sys-%02d", sys), fmt.Sprintf("bench-%03d", bench)
}

var dashFOMs = []string{"triad_mbps", "gflops"}

func dashboardHistory(r *rand.Rand, in *inputs, d hash.Hash, write sink) error {
	for s := 0; s < dashSystems; s++ {
		for b := 0; b < dashBenchmarks; b++ {
			system, bench := dashName(s, b)
			base := 100 + 900*r.Float64()
			es := make([]*perflog.Entry, dashPerFile)
			for i := range es {
				t := historyStart.Add(time.Duration(i)*6*time.Hour + time.Duration(r.IntN(3600))*time.Second)
				es[i] = historyEntry(r, t, bench, system, "compute", dashFOMs, "MB/s", base, i+1)
			}
			if err := emit(in, d, write, system, bench, es); err != nil {
				return err
			}
		}
	}
	return nil
}

func recentHistory(r *rand.Rand, in *inputs, d hash.Hash, write sink) error {
	for _, b := range suiteBenchmarks {
		for _, s := range suiteSystems {
			es := make([]*perflog.Entry, recentPerFile)
			for i := range es {
				t := historyStart.Add(time.Duration(i) * 10 * time.Minute)
				es[i] = historyEntry(r, t, b.name, s.system, s.partition, b.foms, b.unit, b.base, i+1)
			}
			if err := emit(in, d, write, s.system, b.name, es); err != nil {
				return err
			}
		}
	}
	return nil
}

// dashboardPanel draws dashPanelSize distinct panels in fixed shares:
// 20% latest-N selects, 20% since= selects, 40% group-by aggregates
// (half by benchmark within a system, half by system within a
// benchmark) and 20% regression scans. The seed picks the targets and
// the order, not how much of each kind there is.
func dashboardPanel(r *rand.Rand) []panelQuery {
	kinds := make([]int, dashPanelSize)
	for i := range kinds {
		kinds[i] = i * 10 / dashPanelSize
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	seen := map[string]bool{}
	out := make([]panelQuery, 0, dashPanelSize)
	for _, k := range kinds {
		for {
			p := dashboardQuery(r, k)
			if !seen[p.Path()] {
				seen[p.Path()] = true
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// dashboardQuery draws one panel of kind k (0-9, see dashboardPanel).
func dashboardQuery(r *rand.Rand, k int) panelQuery {
	system, bench := dashName(r.IntN(dashSystems), r.IntN(dashBenchmarks))
	f := dashFOMs[r.IntN(len(dashFOMs))]
	v := url.Values{}
	p := panelQuery{Kind: "select"}
	switch {
	case k < 2:
		v.Set("system", system)
		v.Set("benchmark", bench)
		v.Set("limit", fmt.Sprint([]int{10, 20, 50}[r.IntN(3)]))
	case k < 4:
		v.Set("system", system)
		v.Set("fom", f)
		v.Set("result", "pass")
		v.Set("since", historyStart.Add(time.Duration(r.IntN(dashPerFile*6))*time.Hour).Format(time.RFC3339))
		v.Set("limit", "20")
	case k < 8:
		p.Kind = "aggregate"
		v.Set("fom", f)
		v.Set("agg", []string{"mean", "max"}[r.IntN(2)])
		if k < 6 {
			v.Set("system", system)
			v.Set("group_by", "benchmark")
		} else {
			v.Set("benchmark", bench)
			v.Set("group_by", "system")
		}
	default:
		p.Kind = "regressions"
		p.Tolerance, p.Window = 0.1, 5
		v.Set("fom", f)
		v.Set("system", system)
		v.Set("benchmark", bench)
	}
	p.Raw = v.Encode()
	return p
}

// recentPanel is the small mix over the deep head: a narrow since=
// window and a latest-N select per real file, plus recentAggregates
// repeated group-by aggregates. Window widths (1 to 6 hours) and limits
// (5 or 10) are dealt to the files from fixed multisets, so every seed
// asks for the same amount of work.
func recentPanel(r *rand.Rand) []panelQuery {
	end := historyStart.Add(recentPerFile * 10 * time.Minute)
	files := len(suiteBenchmarks) * len(suiteSystems)
	hours, limits := r.Perm(files), r.Perm(files)
	var out []panelQuery
	for i, b := range suiteBenchmarks {
		for j, s := range suiteSystems {
			k := i*len(suiteSystems) + j
			v := url.Values{"system": {s.system}, "benchmark": {b.name}}
			v.Set("since", end.Add(-time.Duration(1+hours[k]%6)*time.Hour).Format(time.RFC3339))
			out = append(out, panelQuery{Kind: "select", Raw: v.Encode()})
			v = url.Values{"system": {s.system}, "benchmark": {b.name}}
			v.Set("limit", fmt.Sprint([]int{5, 10}[limits[k]%2]))
			out = append(out, panelQuery{Kind: "select", Raw: v.Encode()})
		}
	}
	seen := map[string]bool{}
	for len(seen) < recentAggregates {
		b := suiteBenchmarks[r.IntN(len(suiteBenchmarks))]
		v := url.Values{"benchmark": {b.name}, "fom": {b.foms[r.IntN(len(b.foms))]}}
		v.Set("agg", []string{"mean", "max"}[r.IntN(2)])
		v.Set("group_by", []string{"system", "system,partition"}[r.IntN(2)])
		if raw := v.Encode(); !seen[raw] {
			seen[raw] = true
			out = append(out, panelQuery{Kind: "aggregate", Raw: raw})
		}
	}
	return out
}
