package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// timedAppender wraps the daemon's perflog writer (installed through the
// public Server.Runner().Log seam) and times every append.
type timedAppender struct {
	inner perflog.Appender
	times *samples
}

func (a timedAppender) Append(system, benchmark string, entries ...*perflog.Entry) error {
	start := time.Now()
	err := a.inner.Append(system, benchmark, entries...)
	a.times.addDur(time.Since(start))
	return err
}

// snapshot is what the traced mode reads before and after a measured
// phase to report per-layer deltas.
type snapshot struct {
	metrics map[string]float64
	mem     runtime.MemStats
	store   perfstore.Stats
}

func takeSnapshot(c *client, st *perfstore.Store) (snapshot, error) {
	var s snapshot
	var err error
	s.metrics, err = c.scrape()
	runtime.ReadMemStats(&s.mem)
	s.store = st.Stats()
	return s, err
}

// deltas records the per-layer counts and ratios between two snapshots.
func (p *pass) deltas(before, after snapshot) {
	d := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	hits, misses := d("benchd_query_cache_hits_total"), d("benchd_query_cache_misses_total")
	p.count("service.cache_hits", hits)
	p.count("service.cache_misses", misses)
	if hits+misses > 0 {
		p.count("service.cache_hit_ratio", hits/(hits+misses))
	}
	bh, bm := d("buildsys_cache_hits_total"), d("buildsys_cache_misses_total")
	if bh+bm > 0 {
		p.count("buildsys.cache_hit_ratio", bh/(bh+bm))
	}
	if n := d("benchd_ingest_batch_size_count"); n > 0 {
		p.count("perflog.entries_per_commit", d("benchd_ingest_batch_size_sum")/n)
	}
	if n := d("perflog_fsync_seconds_count"); n > 0 {
		p.count("perflog.fsync_ms", 1000*d("perflog_fsync_seconds_sum")/n)
	}
	p.count("eventbus.dropped", d("eventbus_dropped_total"))
	p.count("perfstore.bytes_parsed", float64(after.store.BytesParsed-before.store.BytesParsed))
	p.count("perfstore.sealed_entries", float64(after.store.SealedEntries))
	p.count("go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	p.count("go.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
}

// stageSpans maps the runner's stage spans to their per-layer metrics.
var stageSpans = map[string]string{
	"concretize": "core.concretize_ms",
	"build":      "core.build_ms",
	"schedule":   "core.schedule_ms",
	"extract":    "core.extract_ms",
	"append":     "core.append_ms",
}

// traceStages reads the span trees benchd still retains for the given
// runs (its /v1/traces listing, a ring of the most recently finished)
// and records each stage's total duration per run (the schedule and
// extract stages run once per repetition). Runs finish out of
// submission order, so the listing, not the tail of ids, says which
// traces are still there.
func (p *pass) traceStages(c *client, ids []string) {
	var list struct {
		Traces []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := c.getJSON("/v1/traces", &list); err != nil {
		p.t.miss("list traces: %v", err)
		return
	}
	mine := map[string]bool{}
	for _, id := range ids {
		mine[id] = true
	}
	var retained []string
	for _, t := range list.Traces {
		if mine[t.ID] {
			retained = append(retained, t.ID)
		}
	}
	p.t.check(len(ids) == 0 || len(retained) > 0, "none of %d finished runs has a trace in /v1/traces", len(ids))
	for _, id := range retained {
		var tr struct {
			Root telemetry.SpanView `json:"root"`
		}
		if err := c.getJSON("/v1/traces/"+id, &tr); err != nil {
			p.t.miss("trace %s: %v", id, err)
			continue
		}
		p.t.ok()
		sums := map[string]float64{}
		var walk func(v telemetry.SpanView)
		walk = func(v telemetry.SpanView) {
			if _, ok := stageSpans[v.Name]; ok {
				sums[v.Name] += v.DurationS
			}
			for _, ch := range v.Children {
				walk(ch)
			}
		}
		walk(tr.Root)
		for stage, metric := range stageSpans {
			if s, ok := sums[stage]; ok {
				p.lt(metric).add(1000 * s)
			}
		}
	}
}

// maxPreflights bounds the direct Runner.Preflight calls per phase.
const maxPreflights = 200

// preflights times the runner's pre-flight validation over the run mix.
func (p *pass) preflights(r *core.Runner, mix []runSpec) {
	for i := 0; i < maxPreflights && len(mix) > 0; i++ {
		spec := mix[i%len(mix)]
		b, err := suite.ByName(spec.Benchmark)
		if err != nil {
			p.t.miss("preflight %s: %v", spec.Benchmark, err)
			continue
		}
		start := time.Now()
		err = r.Preflight(b, core.Options{System: spec.System})
		p.lt("core.preflight_ms").addDur(time.Since(start))
		p.t.check(err == nil, "preflight %s on %s: %v", spec.Benchmark, spec.System, err)
	}
}

// timeOpen times opening the workload's tree from scratch once the
// daemon is down: OpenTiered for a tiered store, Open plus the text
// ingest otherwise.
func (p *pass) timeOpen(tree, dataDir string) {
	start := time.Now()
	var st *perfstore.Store
	if dataDir != "" {
		var err error
		if st, err = perfstore.OpenTiered(tree, dataDir); err != nil {
			p.t.miss("open tiered: %v", err)
			return
		}
	} else {
		st = perfstore.Open(tree)
	}
	err := st.Sync()
	p.lt("perfstore.open_ms").addDur(time.Since(start))
	p.t.check(err == nil, "open sync: %v", err)
}

// treeLines counts the perflog files and lines under root.
func treeLines(root string) (files, lines int, err error) {
	err = filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) != ".log" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		lines += bytes.Count(data, []byte{'\n'})
		return nil
	})
	return files, lines, err
}

// checkTree is the end-of-phase invariant: the store holds exactly as
// many entries as the perflog tree has lines.
func (p *pass) checkTree(tree string, st *perfstore.Store) {
	files, lines, err := treeLines(tree)
	if err != nil {
		p.t.miss("walk tree: %v", err)
		return
	}
	p.t.check(st.Len() == lines, "store holds %d entries, perflog tree %d lines", st.Len(), lines)
	if p.traced {
		p.count("perfstore.files", float64(files))
	}
}

// wireEntry mirrors benchd's JSON view of a perflog entry, so a direct
// Select result can be compared with the /v1/query response.
type wireEntry struct {
	Timestamp time.Time          `json:"timestamp"`
	Benchmark string             `json:"benchmark"`
	System    string             `json:"system"`
	Partition string             `json:"partition"`
	Environ   string             `json:"environ"`
	Spec      string             `json:"spec"`
	Job       int                `json:"job"`
	Result    string             `json:"result"`
	FOMs      map[string]wireFOM `json:"foms,omitempty"`
	Extra     map[string]string  `json:"extra,omitempty"`
}

type wireFOM struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

func toWire(es []*perflog.Entry) []wireEntry {
	out := make([]wireEntry, len(es))
	for i, e := range es {
		w := wireEntry{
			Timestamp: e.Time, Benchmark: e.Benchmark, System: e.System,
			Partition: e.Partition, Environ: e.Environ, Spec: e.Spec,
			Job: e.JobID, Result: e.Result, Extra: e.Extra,
		}
		if len(e.FOMs) > 0 {
			w.FOMs = map[string]wireFOM{}
			for k, f := range e.FOMs {
				w.FOMs[k] = wireFOM{Value: f.Value, Unit: f.Unit}
			}
		}
		out[i] = w
	}
	return out
}

// direct answers a panel straight from the store, as (response key,
// value), timing the sync and the query itself when traced.
func (p *pass) direct(st *perfstore.Store, q panelQuery) (string, any, time.Duration, error) {
	start := time.Now()
	if err := st.Sync(); err != nil {
		return "", nil, 0, err
	}
	synced := time.Now()
	pq, err := perfstore.ParseQuery(q.Raw)
	if err != nil {
		return "", nil, 0, err
	}
	var key string
	var val any
	switch q.Kind {
	case "select":
		key, val = "entries", toWire(st.Select(pq))
	case "aggregate":
		key = "aggregates"
		val, err = st.Aggregate(pq)
	case "regressions":
		key = "regressions"
		var reps []perfstore.Report
		reps, err = st.Regressions(pq, q.Tolerance, q.Window)
		if reps == nil {
			reps = []perfstore.Report{}
		}
		val = reps
	}
	done := time.Now()
	if p.traced {
		p.lt("perfstore.sync_ms").addDur(synced.Sub(start))
		p.lt("perfstore." + q.Kind + "_ms").addDur(done.Sub(synced))
	}
	return key, val, done.Sub(start), err
}

// sameJSON reports whether the response body's key holds the same JSON
// value as want.
func sameJSON(body []byte, key string, want any) (bool, error) {
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	var got, exp any
	if err := json.Unmarshal(resp[key], &got); err != nil {
		return false, fmt.Errorf("response %s: %w", key, err)
	}
	if err := json.Unmarshal(wantRaw, &exp); err != nil {
		return false, err
	}
	return reflect.DeepEqual(got, exp), nil
}
