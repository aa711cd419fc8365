package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/service"
)

// Fixed shape of every workload.
const (
	// setup_s is the median of at least minBoots timed boots; cheap
	// boots repeat (up to maxBoots) until setupBudget has passed, so a
	// sub-millisecond boot still gets a steady median.
	minBoots    = 5
	maxBoots    = 25
	setupBudget = time.Second
	// window is how many runs the ingest client keeps outstanding:
	// enough that the daemon's queue never drains while the one client
	// connection submits. With 8, the client was the bottleneck part of
	// the time and latency flipped between two modes.
	window = 32
	// ingestWorkers sizes the ingest daemon's worker pool. With benchd's
	// default two, each run waited out its own fsync, commits held one
	// entry, and throughput fell threefold whenever the host's disk
	// slowed; sixteen concurrent appenders let the group commit batch, so
	// the runner stages set the pace.
	ingestWorkers = 16
	checkEvery    = 8 // untraced readers compare every 8th response with the store
	rateWindow    = time.Second
	// schedEvery is the interval of each dashboard schedule.
	schedEvery = 500 * time.Millisecond
	// eventWait bounds the wait for any one run.finished event.
	eventWait = time.Minute
)

// pass is one execution of a workload, untraced or traced. A traced
// pass repeats the workload with the timing wrappers and extra reads on.
type pass struct {
	workload string
	dir      string
	seed     uint64
	seconds  time.Duration
	traced   bool
	in       *inputs
	t        *tally

	setup      samples // s
	visible    samples // ms, run entering benchd → its run.finished event
	query      samples // ms, reader request → full body
	runRates   samples // passed runs per second, per measured stretch
	queryRates samples // reader responses per second, per measured stretch
	heap       samples // MB live after GC at the end of a measured stretch

	// Traced only: per-layer timing samples (created up front, so
	// concurrent lookups never write the map) and counts (set from the
	// workload's own goroutine).
	layers map[string]*samples
	counts map[string]float64

	receivedMu sync.Mutex
	received   map[string]time.Time // run id → run.finished receipt
}

func newPass(workload string, seed uint64, seconds time.Duration, traced bool) *pass {
	p := &pass{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		t: &tally{}, layers: map[string]*samples{}, counts: map[string]float64{},
		received: map[string]time.Time{},
	}
	for _, d := range perLayer {
		if d.Unit == "ms" {
			p.layers[d.Name] = &samples{}
		}
	}
	return p
}

func (p *pass) lt(name string) *samples { return p.layers[name] }

func (p *pass) count(name string, v float64) { p.counts[name] = v }

// run executes the workload. A returned error means the benchmark could
// not run at all; correctness misses are counted in p.t instead.
func (p *pass) run() error {
	tree := filepath.Join(p.dir, "perflog")
	write := func(system, benchmark string, es []*perflog.Entry) error {
		return perflog.Append(tree, system, benchmark, es...)
	}
	if p.workload == "ingest" {
		write = nil
	}
	in, err := generate(p.workload, p.seed, write)
	if err != nil {
		return err
	}
	p.in = in
	switch p.workload {
	case "ingest":
		return p.ingest()
	case "dashboard":
		return p.dashboard()
	default:
		return p.recent()
	}
}

func (p *pass) config(name string, tiered bool) service.Config {
	cfg := service.Config{
		PerflogRoot: filepath.Join(p.dir, name, "perflog"),
		InstallTree: filepath.Join(p.dir, name, "tree"),
	}
	if tiered {
		cfg.DataDir = filepath.Join(p.dir, name, "data")
	}
	return cfg
}

// bootTimed boots daemons through mk, records each set-up time, and
// keeps the last one running.
func (p *pass) bootTimed(mk func(i int) service.Config) (*daemon, error) {
	start := time.Now()
	for i := 0; ; i++ {
		quiesce()
		d, took, err := boot(mk(i))
		if err != nil {
			return nil, err
		}
		p.setup.add(took.Seconds())
		if i+1 >= maxBoots || (i+1 >= minBoots && time.Since(start) >= setupBudget) {
			return d, nil
		}
		if err := d.close(); err != nil {
			return nil, err
		}
	}
}

// instrument installs the timing appender before the first run enters.
func (p *pass) instrument(d *daemon) {
	if p.traced {
		d.srv.Runner().Log = timedAppender{inner: d.srv.Writer(), times: p.lt("perflog.append_ms")}
	}
}

// quiesce starts a measured stretch from a collected heap and a clean
// page cache: without the flush, the previous stretch's dirty pages are
// written back during this one and slow its fsyncs by a varying amount.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// recordHeap forces a collection and records the live heap.
func (p *pass) recordHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heap.add(float64(m.HeapAlloc) / (1 << 20))
}

// runLoop is the closed-loop submitter: it keeps window runs
// outstanding on one request connection, replacing each as its
// run.finished event arrives on the watch stream. It returns the
// accepted run ids, the time from the first submit to the last event,
// and how many runs passed.
func (p *pass) runLoop(c *client, w *watcher, runs []runSpec) ([]string, time.Duration, int, error) {
	sent := map[string]time.Time{}
	var ids []string
	next, passed := 0, 0
	start := time.Now()
	submit := func() {
		spec := runs[next]
		next++
		body, _ := json.Marshal(spec) // a runSpec always encodes
		t0 := time.Now()
		code, resp, err := c.do("POST", "/v1/runs", body)
		if err != nil || code != http.StatusAccepted {
			p.t.miss("submit %s on %s: %d %v %s", spec.Benchmark, spec.System, code, err, strings.TrimSpace(string(resp)))
			return
		}
		if p.traced {
			p.lt("service.submit_ms").addDur(time.Since(t0))
		}
		var rv struct{ ID string }
		if err := json.Unmarshal(resp, &rv); err != nil || rv.ID == "" {
			p.t.miss("submit response %q: %v", resp, err)
			return
		}
		p.t.ok()
		sent[rv.ID] = t0
		ids = append(ids, rv.ID)
	}
	timeout := time.NewTimer(eventWait)
	defer timeout.Stop()
	for len(sent) > 0 || next < len(runs) {
		for next < len(runs) && len(sent) < window {
			submit()
		}
		if len(sent) == 0 {
			continue
		}
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(eventWait)
		var ev event
		var ok bool
		select {
		case ev, ok = <-w.events:
		case <-timeout.C:
			return ids, 0, passed, fmt.Errorf("no run.finished event within %s (%d runs outstanding)", eventWait, len(sent))
		}
		if !ok {
			return ids, 0, passed, fmt.Errorf("watch stream ended with %d runs outstanding", len(sent))
		}
		id := ev.Data["run_id"]
		t0, mine := sent[id]
		if ev.Type != "run.finished" || !mine {
			continue
		}
		delete(sent, id)
		p.noteFinished(id, ev)
		if p.finishedOK(ev) {
			passed++
			p.visible.addDur(ev.Received.Sub(t0))
		}
	}
	return ids, time.Since(start), passed, nil
}

func (p *pass) noteFinished(id string, ev event) {
	p.receivedMu.Lock()
	p.received[id] = ev.Received
	p.receivedMu.Unlock()
}

// finishedOK checks that a finished run completed with result pass.
func (p *pass) finishedOK(ev event) bool {
	ok := ev.Data["status"] == service.StatusCompleted && ev.Data["result"] == "pass"
	p.t.check(ok, "run %s finished %s/%s: %s", ev.Data["run_id"], ev.Data["status"], ev.Data["result"], ev.Data["error"])
	return ok
}

// runView is benchd's JSON view of a run.
type runView struct {
	ID        string     `json:"id"`
	Status    string     `json:"status"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at"`
	Finished  *time.Time `json:"finished_at"`
	Entry     *wireEntry `json:"entry"`
}

// entryKey identifies an entry across the daemon's run record and the
// store (timestamps compare at the perflog's one-second resolution).
func entryKey(e wireEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%d|%s", e.System, e.Benchmark, e.Result, e.Job, e.Timestamp.UTC().Truncate(time.Second).Format(time.RFC3339))
	for _, k := range sortedKeys(e.Extra) {
		fmt.Fprintf(&b, "|%s=%s", k, e.Extra[k])
	}
	for _, k := range sortedKeys(e.FOMs) {
		fmt.Fprintf(&b, "|%s=%g %s", k, e.FOMs[k].Value, e.FOMs[k].Unit)
	}
	return b.String()
}

// verifyRuns checks every accepted run reached completed/pass and that
// its entry appears exactly once in /v1/query (once per run, for runs
// whose lines are identical). With timed set, those
// lookups are the workload's reader and count into the query metrics;
// their rate is over the time spent waiting for responses, leaving out
// this client's own checking.
func (p *pass) verifyRuns(c *client, st *perfstore.Store, ids []string, timed bool) {
	var list struct {
		Runs []runView `json:"runs"`
	}
	if err := c.getJSON("/v1/runs", &list); err != nil {
		p.t.miss("list runs: %v", err)
		return
	}
	p.t.ok()
	byID := map[string]runView{}
	for _, r := range list.Runs {
		byID[r.ID] = r
	}
	// Two runs of one target can render identical lines (same second,
	// same stage timings to the microsecond); such an entry must appear
	// once per run that produced it.
	copies := map[string]int{}
	for _, id := range ids {
		if r, ok := byID[id]; ok && r.Entry != nil {
			copies[entryKey(*r.Entry)]++
		}
	}
	var busy time.Duration
	lookups := 0
	for _, id := range ids {
		r, ok := byID[id]
		if !p.t.check(ok && r.Status == service.StatusCompleted && r.Entry != nil && r.Entry.Result == "pass",
			"run %s: status %q error %q", id, r.Status, r.Error) {
			continue
		}
		if p.traced && r.Started != nil && r.Finished != nil {
			p.lt("service.queue_wait_ms").addDur(r.Started.Sub(r.Submitted))
			p.lt("core.run_ms").addDur(r.Finished.Sub(*r.Started))
			p.receivedMu.Lock()
			got, seen := p.received[id]
			p.receivedMu.Unlock()
			if seen {
				p.lt("service.watch_lag_ms").addDur(got.Sub(*r.Finished))
			}
		}
		// The run's own stage timing narrows the lookup to its entry (and
		// to any duplicate of it).
		q := panelQuery{Kind: "select", Raw: url.Values{
			"system":                 {r.Entry.System},
			"benchmark":              {r.Entry.Benchmark},
			"since":                  {r.Entry.Timestamp.UTC().Truncate(time.Second).Format(time.RFC3339)},
			"extra.stage_schedule_s": {r.Entry.Extra["stage_schedule_s"]},
		}.Encode()}
		t0 := time.Now()
		code, body, err := c.do("GET", q.Path(), nil)
		took := time.Since(t0)
		if err != nil || code != http.StatusOK {
			p.t.miss("lookup %s: %d %v", id, code, err)
			continue
		}
		lookups++
		busy += took
		if timed {
			p.query.addDur(took)
		}
		var resp struct {
			Entries []wireEntry `json:"entries"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			p.t.miss("lookup %s: %v", id, err)
			continue
		}
		want, n := entryKey(*r.Entry), 0
		for _, e := range resp.Entries {
			if entryKey(e) == want {
				n++
			}
		}
		p.t.check(n == copies[want], "run %s entry appears %d times in /v1/query, want %d", id, n, copies[want])
		if p.traced {
			_, _, direct, err := p.direct(st, q)
			p.t.check(err == nil, "direct lookup: %v", err)
			p.lt("service.query_overhead_ms").addDur(took - direct)
		}
	}
	if timed && lookups > 0 {
		p.queryRates.add(float64(lookups) / busy.Seconds())
	}
}

// readLoop is the closed-loop reader: one connection cycling through a
// seeded order of the panel mix until the deadline. Untraced, every
// checkEvery-th response is compared with the direct store call (time
// spent on the check is excluded from the rate); traced, every response
// is, and the direct calls are timed per layer. The response rate is
// recorded per rateWindow, so a short disturbance moves one sample of
// the median rather than the whole figure.
func (p *pass) readLoop(c *client, st *perfstore.Store, panel []panelQuery, seconds time.Duration) {
	order := stream(p.seed, "order").Perm(len(panel))
	start := time.Now()
	windowStart := start
	var checking time.Duration
	n := 0
	for i := 0; time.Since(start) < seconds; i++ {
		if elapsed := time.Since(windowStart); elapsed >= rateWindow {
			p.queryRates.add(float64(n) / (elapsed - checking).Seconds())
			windowStart, checking, n = time.Now(), 0, 0
		}
		q := panel[order[i%len(order)]]
		gen := st.Generation()
		t0 := time.Now()
		code, body, err := c.do("GET", q.Path(), nil)
		took := time.Since(t0)
		if err != nil || code != http.StatusOK {
			p.t.miss("GET %s: %d %v", q.Path(), code, err)
			continue
		}
		p.t.ok()
		n++
		p.query.addDur(took)
		if !p.traced && i%checkEvery != 0 {
			continue
		}
		c0 := time.Now()
		key, want, direct, err := p.direct(st, q)
		if err != nil {
			p.t.miss("direct %s: %v", q.Path(), err)
		} else if st.Generation() == gen {
			same, err := sameJSON(body, key, want)
			p.t.check(err == nil && same, "response of %s differs from the store (%v)", q.Path(), err)
		}
		if p.traced {
			p.lt("service.query_overhead_ms").addDur(took - direct)
		} else {
			checking += time.Since(c0)
		}
	}
	if n > 0 {
		p.queryRates.add(float64(n) / (time.Since(windowStart) - checking).Seconds())
	}
}

// ingest is the write path at saturation. Each round boots a fresh
// empty tiered daemon and pushes the same fixed run mix through it, so
// every round does the same work however fast it goes (throughput falls
// as history grows, so a time-sized round would measure a moving
// target); rounds repeat until the run's time is used.
func (p *pass) ingest() error {
	live, err := p.bootTimed(func(i int) service.Config {
		cfg := p.config(fmt.Sprintf("setup%d", i), true)
		cfg.Workers = ingestWorkers
		return cfg
	})
	if err != nil {
		return err
	}
	if err := live.close(); err != nil {
		return err
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < p.seconds; round++ {
		name := fmt.Sprintf("round%d", round)
		cfg := p.config(name, true)
		cfg.Workers = ingestWorkers
		if err := p.ingestRound(cfg); err != nil {
			return err
		}
		if err := os.RemoveAll(filepath.Join(p.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) ingestRound(cfg service.Config) error {
	quiesce()
	d, _, err := boot(cfg)
	if err != nil {
		return err
	}
	defer d.close()
	p.instrument(d)
	c := newClient(d.base)
	defer c.close()
	st := d.srv.Store()
	before, err := takeSnapshot(c, st)
	if err != nil {
		return err
	}
	w, err := watch(d.base, "run.finished")
	if err != nil {
		return err
	}
	ids, took, passed, err := p.runLoop(c, w, p.in.Runs)
	w.close()
	if err != nil {
		return err
	}
	p.runRates.add(float64(passed) / took.Seconds())
	p.recordHeap()
	after, err := takeSnapshot(c, st)
	if err != nil {
		return err
	}
	p.verifyRuns(c, st, ids, true)
	p.checkTree(cfg.PerflogRoot, st)
	if p.traced {
		p.deltas(before, after)
		p.traceStages(c, ids)
		p.preflights(d.srv.Runner(), p.in.Runs)
		p.layerPanel(c, st)
	}
	if err := d.close(); err != nil {
		return err
	}
	if p.traced {
		p.timeOpen(cfg.PerflogRoot, cfg.DataDir)
	}
	return nil
}

// layerPanel times the direct aggregate and regression calls on the
// ingest store, whose own reader only selects: one of each per suite
// benchmark × system, answered over HTTP and compared as well.
func (p *pass) layerPanel(c *client, st *perfstore.Store) {
	for _, b := range suiteBenchmarks {
		for _, s := range suiteSystems {
			v := url.Values{"fom": {b.foms[0]}, "system": {s.system}, "benchmark": {b.name}}
			regress := panelQuery{Kind: "regressions", Raw: v.Encode(), Tolerance: 0.1, Window: 5}
			v.Set("agg", "mean")
			v.Set("group_by", "system")
			agg := panelQuery{Kind: "aggregate", Raw: v.Encode()}
			for _, q := range []panelQuery{agg, regress} {
				code, body, err := c.do("GET", q.Path(), nil)
				if err != nil || code != http.StatusOK {
					p.t.miss("GET %s: %d %v", q.Path(), code, err)
					continue
				}
				key, want, _, err := p.direct(st, q)
				same := false
				if err == nil {
					same, err = sameJSON(body, key, want)
				}
				p.t.check(err == nil && same, "response of %s differs from the store (%v)", q.Path(), err)
			}
		}
	}
}

// dashboard is reads over a large sealed history while the daemon's own
// schedules fire runs beside them.
func (p *pass) dashboard() error {
	cfg := p.config("", true)
	// Schedules fire on a fine tick with next to no jitter, and are
	// registered a fraction of an interval apart (below), so their runs
	// arrive evenly spaced. With benchd's default 10% jitter on a coarse
	// tick they arrived in bursts whose overlap changed from run to run,
	// and queueing behind the burst dominated the visibility latency.
	cfg.TickInterval = 10 * time.Millisecond
	cfg.SchedJitter = 0.001
	first, _, err := boot(cfg)
	if err != nil {
		return err
	}
	_, serr := first.srv.Store().Seal()
	if err := first.close(); err != nil || serr != nil {
		return fmt.Errorf("seal history: %v %v", serr, err)
	}
	d, err := p.bootTimed(func(int) service.Config { return cfg })
	if err != nil {
		return err
	}
	defer d.close()
	p.instrument(d)
	c := newClient(d.base)
	defer c.close()
	st := d.srv.Store()
	before, err := takeSnapshot(c, st)
	if err != nil {
		return err
	}
	w, err := watch(d.base, "run.finished,schedule.fired")
	if err != nil {
		return err
	}
	sr := &scheduledRuns{p: p, fired: map[string]time.Time{}, done: make(chan struct{})}
	go sr.consume(w)
	var schedIDs []string
	for _, s := range p.in.Schedules {
		body, _ := json.Marshal(map[string]string{"benchmark": s.Benchmark, "system": s.System, "every": schedEvery.String()})
		code, resp, err := c.do("POST", "/v1/schedules", body)
		var created struct{ ID string }
		if err != nil || code != http.StatusCreated || json.Unmarshal(resp, &created) != nil {
			w.close()
			<-sr.done
			return fmt.Errorf("register schedule %+v: %d %v %s", s, code, err, resp)
		}
		p.t.ok()
		schedIDs = append(schedIDs, created.ID)
		time.Sleep(schedEvery / time.Duration(len(p.in.Schedules)))
	}
	phaseStart := time.Now()
	p.readLoop(c, st, p.in.Panel, p.seconds)
	phaseEnd := time.Now()
	p.recordHeap()
	after, err := takeSnapshot(c, st)
	if err != nil {
		w.close()
		<-sr.done
		return err
	}
	for _, id := range schedIDs {
		code, _, err := c.do("DELETE", "/v1/schedules/"+id, nil)
		p.t.check(err == nil && code == http.StatusNoContent, "delete schedule %s: %d %v", id, code, err)
	}
	ids, passed := sr.drain(phaseStart, phaseEnd)
	w.close()
	<-sr.done
	if ids == nil {
		return fmt.Errorf("scheduled runs did not finish within %s of their schedules' deletion", eventWait)
	}
	p.runRates.add(float64(passed) / phaseEnd.Sub(phaseStart).Seconds())
	p.verifyRuns(c, st, ids, false)
	p.checkTree(cfg.PerflogRoot, st)
	if p.traced {
		p.deltas(before, after)
		p.traceStages(c, ids)
		p.preflights(d.srv.Runner(), p.in.Schedules)
	}
	if err := d.close(); err != nil {
		return err
	}
	if p.traced {
		p.timeOpen(cfg.PerflogRoot, cfg.DataDir)
	}
	return nil
}

// scheduledRuns follows the runs benchd's schedules fire: a run enters
// benchd at its schedule.fired event (each schedule has at most one run
// in flight, so a schedule's next run.finished belongs to its last fire).
type scheduledRuns struct {
	p        *pass
	mu       sync.Mutex
	fired    map[string]time.Time // schedule id → time of its last fire
	nfired   int
	finished []event
	done     chan struct{}
}

func (s *scheduledRuns) consume(w *watcher) {
	defer close(s.done)
	for ev := range w.events {
		sid := ev.Data["schedule_id"]
		if sid == "" {
			continue
		}
		s.mu.Lock()
		switch ev.Type {
		case "schedule.fired":
			s.fired[sid] = ev.Time
			s.nfired++
		case "run.finished":
			if t, ok := s.fired[sid]; ok {
				s.p.noteFinished(ev.Data["run_id"], ev)
				if s.p.finishedOK(ev) {
					s.p.visible.addDur(ev.Received.Sub(t))
				}
				s.finished = append(s.finished, ev)
			}
		}
		s.mu.Unlock()
	}
}

// drain waits until every fired run has finished and returns their ids
// and how many passed within the measured phase (nil ids on timeout).
func (s *scheduledRuns) drain(from, to time.Time) ([]string, int) {
	deadline := time.Now().Add(eventWait)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		settled := len(s.finished) == s.nfired
		s.mu.Unlock()
		if settled {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.finished) != s.nfired {
		return nil, 0
	}
	ids := []string{}
	passed := 0
	for _, ev := range s.finished {
		ids = append(ids, ev.Data["run_id"])
		if ev.Data["result"] == "pass" && !ev.Received.Before(from) && !ev.Received.After(to) {
			passed++
		}
	}
	sort.Strings(ids)
	return ids, passed
}

// recent is idle reads over a deep, narrow head booted from text: no
// runs enter, so the run metrics are absent.
func (p *pass) recent() error {
	cfg := p.config("", false)
	d, err := p.bootTimed(func(int) service.Config { return cfg })
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(d.base)
	defer c.close()
	st := d.srv.Store()
	before, err := takeSnapshot(c, st)
	if err != nil {
		return err
	}
	p.readLoop(c, st, p.in.Panel, p.seconds)
	p.recordHeap()
	after, err := takeSnapshot(c, st)
	if err != nil {
		return err
	}
	p.checkTree(cfg.PerflogRoot, st)
	if p.traced {
		p.deltas(before, after)
		p.layerPanel(c, st)
	}
	if err := d.close(); err != nil {
		return err
	}
	if p.traced {
		p.timeOpen(cfg.PerflogRoot, "")
	}
	return nil
}

// endToEnd summarises the pass into its end-to-end metrics; a metric
// without samples, or a p99 with fewer than minBeyond samples beyond
// it, is absent.
func (p *pass) endToEnd() map[string]metricValue {
	out := map[string]metricValue{}
	med := func(name, unit string, s *samples) {
		if xs := s.values(); len(xs) > 0 {
			out[name] = metricValue{Value: median(xs), Unit: unit, N: len(xs)}
		}
	}
	tail := func(name string, s *samples) {
		xs := s.values()
		if v, ok := percentile(xs, 0.99); ok {
			out[name] = metricValue{Value: v, Unit: "ms", N: len(xs)}
		}
	}
	med("setup_s", "s", &p.setup)
	med("runs_per_s", "1/s", &p.runRates)
	med("run_visible_p50_ms", "ms", &p.visible)
	tail("run_visible_p99_ms", &p.visible)
	med("query_p50_ms", "ms", &p.query)
	tail("query_p99_ms", &p.query)
	med("queries_per_s", "1/s", &p.queryRates)
	med("heap_mb", "MB", &p.heap)
	if p.t.attempted > 0 {
		out["error_rate"] = metricValue{Value: float64(p.t.failed) / float64(p.t.attempted), Unit: "ratio", N: p.t.attempted}
	}
	return out
}

// perLayer summarises a traced pass's layer samples (medians, and the
// append p99 under the same ten-beyond rule) and counts.
func (p *pass) perLayer() map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range perLayer {
		if s, ok := p.layers[d.Name]; ok && len(s.values()) > 0 {
			xs := s.values()
			out[d.Name] = metricValue{Value: median(xs), Unit: d.Unit, N: len(xs)}
		} else if v, ok := p.counts[d.Name]; ok {
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	xs := p.lt("perflog.append_ms").values()
	if v, ok := percentile(xs, 0.99); ok {
		out["perflog.append_p99_ms"] = metricValue{Value: v, Unit: "ms", N: len(xs)}
	}
	return out
}

// newWorkDir makes a fresh scratch directory under root.
func newWorkDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
