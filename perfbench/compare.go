package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Verdicts of the comparison, following the choosing-metrics rules: a
// gain needs the change to win nine tenths of the pairs and the medians
// to differ by more than the base's quartile spread; a loss is a median
// worse than the base's by more than the metric's bound; a spread wider
// than the bound leaves the metric unresolved unless every change run
// beats every base run.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minRuns is the fewest runs per side a verdict rests on.
const minRuns = 3

// spread is one side's distribution of a metric.
type spread struct {
	N           int
	Q1, Med, Q3 float64
	Mean        float64
	CILo, CIHi  float64
}

func summarize(xs []float64) spread {
	s := spread{N: len(xs)}
	if q1, q2, q3, ok := quartiles(xs); ok {
		s.Q1, s.Med, s.Q3 = q1, q2, q3
	} else if len(xs) == 1 {
		s.Q1, s.Med, s.Q3 = xs[0], xs[0], xs[0]
	}
	sum := stats.Summarize(xs, 0, 0, 1)
	s.Mean, s.CILo, s.CIHi = sum.Mean, sum.CILo, sum.CIHi
	return s
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	Workload, Metric, Unit string
	Base, Change           spread
	Wins, Losses, Pairs    int
	Verdict                string
}

// pair is one base run and one change run of the same seed (or, when
// the sides share no seed, of the same rank in seed order).
type pair struct{ base, change float64 }

// judge applies the verdict rules to one metric.
func judge(def metricDef, pairs []pair, base, change []float64) judgement {
	j := judgement{Metric: def.Name, Unit: def.Unit, Base: summarize(base), Change: summarize(change), Pairs: len(pairs)}
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for _, p := range pairs {
		switch {
		case better(p.change, p.base):
			j.Wins++
		case better(p.base, p.change):
			j.Losses++
		}
	}
	if len(base) < minRuns || len(change) < minRuns {
		j.Verdict = verdictUnresolved
		return j
	}
	b, c := j.Base, j.Change
	if better(c.Med, b.Med) && 10*j.Wins >= 9*j.Pairs && math.Abs(c.Med-b.Med) > b.Q3-b.Q1 {
		j.Verdict = verdictImproved
		return j
	}
	worse := c.Med - b.Med
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound*math.Abs(b.Med) {
		j.Verdict = verdictWorse
		return j
	}
	wide := func(s spread) bool {
		if s.Med == 0 {
			return s.Q3 > s.Q1
		}
		return (s.Q3-s.Q1)/math.Abs(s.Med) > def.Bound
	}
	if wide(b) || wide(c) {
		allBetter := true
		for _, x := range change {
			for _, y := range base {
				allBetter = allBetter && better(x, y)
			}
		}
		if !allBetter {
			j.Verdict = verdictUnresolved
			return j
		}
	}
	j.Verdict = verdictWithin
	return j
}

// loadResults reads result files from a file or a directory of them.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a perfbench result", f)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// checkEnvironments refuses to pair results from different machines or
// toolchains, or a side that mixes binaries.
func checkEnvironments(base, change []*result) error {
	key := base[0].Env.machineKey()
	for _, side := range [][]*result{base, change} {
		bin := side[0].Env.BinarySHA256
		for _, r := range side {
			if k := r.Env.machineKey(); k != key {
				return fmt.Errorf("environments differ: %q vs %q", key, k)
			}
			if r.Env.BinarySHA256 != bin {
				return fmt.Errorf("one side mixes binaries %s and %s", short(bin), short(r.Env.BinarySHA256))
			}
		}
	}
	return nil
}

// compareSets judges every end-to-end metric on every workload both
// sides ran. Traced results are left out: their end-to-end figures come
// from a half-length pass.
func compareSets(base, change []*result) ([]judgement, error) {
	if err := checkEnvironments(base, change); err != nil {
		return nil, err
	}
	bySide := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		for _, list := range m {
			sort.Slice(list, func(i, j int) bool { return list[i].Seed < list[j].Seed })
		}
		return m
	}
	bw, cw := bySide(base), bySide(change)
	var out []judgement
	for _, w := range sortedKeys(bw) {
		if _, ok := cw[w]; !ok {
			continue
		}
		for _, def := range endToEnd {
			bv, bs := values(bw[w], def.Name)
			cv, cs := values(cw[w], def.Name)
			j := judge(def, pairUp(bv, bs, cv, cs), bv, cv)
			j.Workload = w
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two sets share no workload")
	}
	return out, nil
}

func values(rs []*result, metric string) ([]float64, []uint64) {
	var xs []float64
	var seeds []uint64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return xs, seeds
}

// pairUp pairs runs of equal seed; without a shared seed it pairs runs
// by rank in seed order.
func pairUp(bv []float64, bs []uint64, cv []float64, cs []uint64) []pair {
	bySeed := map[uint64]float64{}
	for i, s := range bs {
		bySeed[s] = bv[i]
	}
	var out []pair
	for i, s := range cs {
		if b, ok := bySeed[s]; ok {
			out = append(out, pair{b, cv[i]})
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < len(bv) && i < len(cv); i++ {
		out = append(out, pair{bv[i], cv[i]})
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE CHANGE")
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	js, err := compareSets(base, change)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: refused: %v\n", err)
		return 2
	}
	printJudgements(stdout, js)
	for _, j := range js {
		if j.Verdict == verdictWorse {
			return 1
		}
	}
	return 0
}

func printJudgements(w io.Writer, js []judgement) {
	fmt.Fprintf(w, "%-10s %-20s %-6s %-40s %-40s %-9s %s\n",
		"workload", "metric", "unit", "base median [q1 q3] n (mean 95% CI)", "change median [q1 q3] n (mean 95% CI)", "wins", "verdict")
	side := func(s spread) string {
		if s.N == 0 {
			return "absent"
		}
		return fmt.Sprintf("%.4g [%.4g %.4g] %d (%.4g..%.4g)", s.Med, s.Q1, s.Q3, s.N, s.CILo, s.CIHi)
	}
	for _, j := range js {
		fmt.Fprintf(w, "%-10s %-20s %-6s %-40s %-40s %-9s %s\n", j.Workload, j.Metric, j.Unit,
			side(j.Base), side(j.Change), fmt.Sprintf("%d/%d", j.Wins, j.Pairs), strings.ToUpper(j.Verdict[:1])+j.Verdict[1:])
	}
}
