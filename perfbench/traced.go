package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/fault"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/planner"
	"wasabi/internal/report"
	"wasabi/internal/sast"
	"wasabi/internal/source"
	"wasabi/internal/testkit"
)

// layerMetrics is every per-layer metric a traced run reports, in
// README.md's table order. Times are self time per op; counts are per
// op. A metric of a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"source.load_ms", "ms"}, {"source.parse_ms", "ms"}, {"source.parses", "count"}, {"source.reuse_ratio", "ratio"},
	{"sast.analyze_ms", "ms"}, {"sast.extracts", "count"}, {"sast.hydrations", "count"}, {"sast.ratio_ms", "ms"},
	{"llm.review_ms", "ms"}, {"llm.reviews_fresh", "count"}, {"llm.truncated_files", "count"},
	{"cache.get_ms", "ms"}, {"cache.put_ms", "ms"}, {"cache.hit_ratio", "ratio"}, {"cache.disk_loads", "count"},
	{"cache.disk_writes", "count"}, {"cache.evictions", "count"}, {"cache.bytes", "bytes"},
	{"planner.collect_ms", "ms"}, {"planner.plan_entries", "count"}, {"planner.run_ratio", "ratio"},
	{"testkit.run_ms", "ms"}, {"testkit.runs", "count"}, {"testkit.runs_failed", "count"},
	{"fault.injections", "count"}, {"fault.suppressed", "count"},
	{"oracle.evaluate_ms", "ms"}, {"oracle.reports_raw", "count"}, {"oracle.dedup_ratio", "ratio"},
	{"report.encode_ms", "ms"}, {"report.bytes", "bytes"},
	{"core.identify_ms", "ms"}, {"core.dynamic_ms", "ms"}, {"core.static_ms", "ms"}, {"core.if_ms", "ms"},
	{"server.submit_ms.p50", "ms"}, {"server.polls_per_job", "count"},
	{"server.queue_wait_ms.p50", "ms"}, {"server.queue_wait_ms.p99", "ms"},
	{"server.run_ms.p50", "ms"}, {"server.run_ms.p99", "ms"},
	{"server.slots_busy_max", "count"}, {"server.backlog_end", "count"}, {"server.refused_ratio", "ratio"},
	{"loadgen.lag_ms.p99", "ms"}, {"loadgen.lag_ms.max", "ms"},
	{"go.alloc_mb_per_op", "MB"}, {"go.gcs_per_op", "count"}, {"go.gc_cpu_fraction", "ratio"},
	{"trace.op_ms.p50", "ms"}, {"trace.untraced_op_ms.p50", "ms"}, {"trace.overhead_ms", "ms"}, {"trace.ops", "count"},
}

// spanMetrics maps span names to the self-time metric they sum into.
var spanMetrics = map[string]string{
	"source.load":     "source.load_ms",
	"source.parse":    "source.parse_ms",
	"sast.analyze":    "sast.analyze_ms",
	"sast.ratio":      "sast.ratio_ms",
	"llm.review":      "llm.review_ms",
	"cache.get":       "cache.get_ms",
	"cache.put":       "cache.put_ms",
	"planner.collect": "planner.collect_ms",
	"testkit.run":     "testkit.run_ms",
	"oracle.evaluate": "oracle.evaluate_ms",
	"report.encode":   "report.encode_ms",
	"core.identify":   "core.identify_ms",
	"core.dynamic":    "core.dynamic_ms",
	"core.static":     "core.static_ms",
	"core.if":         "core.if_ms",
}

// workCounts are the units of work the traced layer pass must repeat
// exactly: the program's own obs counters of the untraced op on one
// side, the layer pass's own tally on the other.
type workCounts struct {
	Parses        int64 `json:"parses"`
	Extracts      int64 `json:"extracts"`
	Reviews       int64 `json:"reviews"`
	PlanEntries   int64 `json:"plan_entries"`
	InjectionRuns int64 `json:"injection_runs"`
}

func (a workCounts) minus(b workCounts) workCounts {
	return workCounts{a.Parses - b.Parses, a.Extracts - b.Extracts, a.Reviews - b.Reviews,
		a.PlanEntries - b.PlanEntries, a.InjectionRuns - b.InjectionRuns}
}

// sumCounter sums a counter family over every label set.
func sumCounter(s obs.Snapshot, name string) int64 {
	var n int64
	for _, c := range s.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// programCounts reads the work counts from a registry snapshot.
func programCounts(s obs.Snapshot) workCounts {
	return workCounts{
		Parses:        s.Counter("source_parse_total"),
		Extracts:      s.Counter("source_derived_computes_total", "kind", sast.ExtractKind),
		Reviews:       s.Counter("llm_files_reviewed_total"),
		PlanEntries:   sumCounter(s, "core_plan_entries_total"),
		InjectionRuns: sumCounter(s, "core_injection_runs_total"),
	}
}

// tracer runs the traced replay. Each op's input goes through three
// systems in the workload's configuration, each seeing every input
// change exactly once:
//
//   - u, the untraced op (core.Wasabi.RunCorpus), timed; its obs
//     counter deltas are the program's own work counts;
//   - t, the core pass: Identify, RunDynamic and RunStatic per app
//     (apps fanned out as RunCorpus does), RunIFAnalysis, then
//     report.Build+Marshal, each inside a span; its time is the traced
//     op time;
//   - l, the layer pass: the layers below core called directly, one
//     app after another, on the same inputs, each call inside a span.
type tracer struct {
	rec     *recorder
	u, t, l *system
	review  *llm.Client
	// parsed holds the l files whose AST the layer pass already built;
	// a file the store interned afresh is parsed up front, inside its
	// own span, so that parse time is not hidden in the consumers.
	parsed map[*source.File]bool

	own        workCounts // the layer pass's tally
	prog       workCounts // the program's counters over u ops
	truncated  int64
	runsFailed int64
	diskWrites int64
	planned    int64
	naive      int64
	rawReports int64
	deduped    int64

	ops              int
	untraced, traced []float64
	reportBytes      int64
	allocBytes       uint64
	gcs              uint32
}

func newTracer(u, t, l *system) *tracer {
	return &tracer{
		rec: newRecorder(), u: u, t: t, l: l,
		review: llm.NewClient(llm.DefaultConfig()).Instrument(l.reg),
		parsed: map[*source.File]bool{},
	}
}

// markParsed records every file of apps the persistent l store already
// holds (warm-up parsed them) so the layer pass does not parse them.
func (tr *tracer) markParsed(apps []corpus.App) error {
	if tr.l.store == nil {
		return nil
	}
	for _, app := range apps {
		snap, err := tr.l.store.Load(app.Dir)
		if err != nil {
			return err
		}
		for _, f := range snap.Files {
			tr.parsed[f] = true
		}
	}
	return nil
}

// step replays one op: apply its edit, then run it through u, t and l,
// checking both reports against the reference and the layer pass's work
// against the program's counters.
func (tr *tracer) step(op int, apps []corpus.App, e edit, ref reference) error {
	if err := e.apply(); err != nil {
		return err
	}
	before := tr.u.reg.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err := tr.u.analyze(apps, 0)
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if err := ref.check(out, apps); err != nil {
		return err
	}
	prog := programCounts(tr.u.reg.Snapshot()).minus(programCounts(before))

	outT, runs, dT, err := tr.corePass(op, apps)
	if err != nil {
		return err
	}
	if err := ref.check(outT, apps); err != nil {
		return fmt.Errorf("core pass: %w", err)
	}

	lBefore := tr.l.reg.Snapshot()
	ownBefore := tr.own
	if err := tr.layerPass(op, apps, runs); err != nil {
		return err
	}
	lCounts := programCounts(tr.l.reg.Snapshot()).minus(programCounts(lBefore))
	own := tr.own.minus(ownBefore)
	own.Extracts = lCounts.Extracts
	if lCounts.Parses != own.Parses {
		return fmt.Errorf("layer pass: store parsed %d files, the pass parsed %d", lCounts.Parses, own.Parses)
	}
	tr.own.Extracts += own.Extracts
	if own != prog {
		return fmt.Errorf("layer pass work %+v differs from the program's counters %+v", own, prog)
	}
	tr.prog = workCounts{
		tr.prog.Parses + prog.Parses, tr.prog.Extracts + prog.Extracts, tr.prog.Reviews + prog.Reviews,
		tr.prog.PlanEntries + prog.PlanEntries, tr.prog.InjectionRuns + prog.InjectionRuns,
	}
	tr.ops++
	tr.untraced = append(tr.untraced, ms(d))
	tr.traced = append(tr.traced, ms(dT))
	tr.reportBytes += int64(len(outT.report))
	tr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	tr.gcs += m1.NumGC - m0.NumGC
	return nil
}

// forEach runs fn(0..n-1) on up to workers goroutines and waits.
func forEach(n, workers int, fn func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(n, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// corePass runs the pipeline stage by stage through core.Wasabi, with a
// span around each call, and renders the report.
func (tr *tracer) corePass(op int, apps []corpus.App) (outcome, []core.AppRun, time.Duration, error) {
	root := tr.rec.start(op, 0, "op")
	w := core.New(tr.t.options(0))
	runs := make([]core.AppRun, len(apps))
	errs := make([]error, len(apps))
	forEach(len(apps), runtime.GOMAXPROCS(0), func(i int) {
		app := apps[i]
		s := tr.rec.start(op, root.id(), "core.identify")
		id, err := w.Identify(app)
		s.end()
		if err != nil {
			errs[i] = err
			return
		}
		s = tr.rec.start(op, root.id(), "core.dynamic")
		dyn, err := w.RunDynamic(app, id)
		s.end()
		if err != nil {
			errs[i] = err
			return
		}
		s = tr.rec.start(op, root.id(), "core.static")
		st := w.RunStatic(app, id)
		s.end()
		runs[i] = core.AppRun{App: app, ID: id, Dyn: dyn, Static: st}
	})
	for _, err := range errs {
		if err != nil {
			return outcome{}, nil, 0, err
		}
	}
	cr := &core.CorpusRun{Apps: runs}
	ids := make([]*core.Identification, len(runs))
	for i, ar := range runs {
		ids[i] = ar.ID
		cr.Usage.Add(ar.Static.Usage)
		for _, d := range ar.ID.Degraded {
			if d.Reason == llm.DegradedOutage {
				cr.Degraded = true
			}
		}
	}
	s := tr.rec.start(op, root.id(), "core.if")
	cr.IFRatios, cr.IFReports = w.RunIFAnalysis(ids)
	s.end()
	s = tr.rec.start(op, root.id(), "report.encode")
	data, err := report.Marshal(report.Build(cr))
	s.end()
	d := root.end()
	if err != nil {
		return outcome{}, nil, 0, err
	}
	return outcome{run: cr, report: data, fresh: w.LLMUsage().TokensIn}, runs, d, nil
}

// layerPass calls the layers below core on apps, one app at a time, in
// the order core.identifyLane and core.RunDynamic call them. runs are
// the core pass's results for the same inputs: the planner starts from
// their identifications, and the dynamic outcome must agree with them.
func (tr *tracer) layerPass(op int, apps []corpus.App, runs []core.AppRun) error {
	root := tr.rec.start(op, 0, "layers")
	defer root.end()
	store := tr.l.store
	if store == nil {
		// The CLI configuration: a fresh store per op.
		store = source.NewStore(tr.l.reg)
		tr.parsed = map[*source.File]bool{}
	}
	analyses := make([]*sast.Analysis, 0, len(apps))
	for i, app := range apps {
		a, err := tr.layerApp(op, root.id(), store, app, runs[i])
		if err != nil {
			return fmt.Errorf("layer pass %s: %w", app.Code, err)
		}
		analyses = append(analyses, a)
	}
	s := tr.rec.start(op, root.id(), "sast.ratio")
	sast.RatioAnalysis(analyses, sast.DefaultRatioOptions())
	s.end()
	return nil
}

// tracedFacts is the facts tier handed to sast, with a span around
// every call into the cache.
type tracedFacts struct {
	tr         *tracer
	op, parent int
	ca         *cache.Cache
	disk       bool
}

func (f *tracedFacts) GetFacts(h string) (*sast.FileFacts, bool) {
	s := f.tr.rec.start(f.op, f.parent, "cache.get")
	defer s.end()
	return f.ca.GetFacts(h)
}

func (f *tracedFacts) PutFacts(h string, ff *sast.FileFacts) {
	s := f.tr.rec.start(f.op, f.parent, "cache.put")
	defer s.end()
	f.ca.PutFacts(h, ff)
	if f.disk {
		f.tr.diskWrites++
	}
}

// layerApp is the layer pass over one app.
func (tr *tracer) layerApp(op, parent int, store *source.Store, app corpus.App, ar core.AppRun) (*sast.Analysis, error) {
	ca := tr.l.cache
	disk := tr.l.cacheDir != ""
	s := tr.rec.start(op, parent, "source.load")
	snap, err := store.Load(app.Dir)
	s.end()
	if err != nil {
		return nil, err
	}
	for _, f := range snap.Files {
		if tr.parsed[f] {
			continue
		}
		tr.parsed[f] = true
		s := tr.rec.start(op, parent, "source.parse")
		// A parse error is memoized with the file; sast.AnalyzeSnapshotWith
		// below reports it.
		f.Syntax() //nolint:errcheck
		s.end()
		tr.own.Parses++
	}

	var man *cache.DirManifest
	var analysis *sast.Analysis
	if ca != nil {
		s := tr.rec.start(op, parent, "cache.get")
		man = cache.FromSnapshot(snap)
		analysis, _ = ca.GetAnalysis(cache.AnalysisKey(app.Dir, man.Digest))
		s.end()
	}
	if analysis == nil {
		s := tr.rec.start(op, parent, "sast.analyze")
		var facts sast.FactsStore
		if ca != nil {
			facts = &tracedFacts{tr: tr, op: op, parent: s.id(), ca: ca, disk: disk}
		}
		analysis, err = sast.AnalyzeSnapshotWith(snap, facts)
		s.end()
		if err != nil {
			return nil, err
		}
		if man != nil {
			s := tr.rec.start(op, parent, "cache.put")
			ca.PutAnalysis(cache.AnalysisKey(app.Dir, man.Digest), analysis, man.TotalBytes)
			s.end()
		}
	}

	fp := tr.review.Fingerprint()
	for i, sf := range snap.Files {
		key := ""
		if ca != nil {
			key = cache.ReviewKey(fp, sf.Path, sf.SHA256)
			s := tr.rec.start(op, parent, "cache.get")
			_, hit := ca.GetReview(key)
			s.end()
			if hit {
				continue
			}
		}
		s := tr.rec.start(op, parent, "llm.review")
		rev := tr.review.ReviewSnapshotAt(sf, -1, i)
		s.end()
		tr.own.Reviews++
		if rev.TruncatedContext {
			tr.truncated++
		}
		if key != "" && !rev.Degraded {
			s := tr.rec.start(op, parent, "cache.put")
			ca.PutReview(key, rev)
			s.end()
			if disk {
				tr.diskWrites++
			}
		}
	}

	locs := ar.ID.Locations()
	s = tr.rec.start(op, parent, "planner.collect")
	cov := planner.Collect(app.Suite, locs)
	plan := planner.BuildPlan(cov)
	s.end()
	tr.own.PlanEntries += int64(len(plan))
	tr.planned += int64(planner.PlannedRuns(plan, locs))
	tr.naive += int64(planner.NaiveRuns(cov, locs))
	tests := make(map[string]testkit.Test, len(app.Suite.Tests))
	for _, t := range app.Suite.Tests {
		tests[t.Name] = t
	}
	opts := core.DefaultOptions()
	opts.Oracle.Metrics = tr.l.reg
	var all []oracle.Report
	for _, entry := range plan {
		test, ok := tests[entry.Test]
		if !ok {
			return nil, fmt.Errorf("plan references unknown test %s", entry.Test)
		}
		for _, exc := range planner.Exceptions(locs, entry.Loc) {
			loc := fault.Location{Coordinator: entry.Loc.Coordinator, Retried: entry.Loc.Retried, Exception: exc}
			for _, k := range []int{opts.HowK, opts.CapK} {
				rules := []fault.Rule{{Loc: loc, K: k}}
				s := tr.rec.start(op, parent, "testkit.run")
				res := testkit.Run(test, fault.NewInjector(rules).Instrument(tr.l.reg), cov.Prepared[test.Name])
				s.end()
				tr.own.InjectionRuns++
				if res.Failed() {
					tr.runsFailed++
				}
				s = tr.rec.start(op, parent, "oracle.evaluate")
				all = append(all, oracle.Evaluate(app.Code, res, rules, opts.Oracle)...)
				s.end()
			}
		}
	}
	s = tr.rec.start(op, parent, "oracle.evaluate")
	deduped := oracle.Dedup(all)
	s.end()
	tr.rawReports += int64(len(all))
	tr.deduped += int64(len(deduped))
	if len(plan) != ar.Dyn.PlanEntries || len(deduped) != len(ar.Dyn.Reports) {
		return nil, fmt.Errorf("layer pass planned %d entries and kept %d reports; the core pass %d and %d",
			len(plan), len(deduped), ar.Dyn.PlanEntries, len(ar.Dyn.Reports))
	}
	return analysis, nil
}

// layerSnapshot is the l-side state a traced run reports deltas of.
type layerSnapshot struct {
	reg   obs.Snapshot
	cache cache.Stats
}

func (tr *tracer) snapshot() layerSnapshot {
	return layerSnapshot{reg: tr.l.reg.Snapshot(), cache: tr.l.cache.Stats()}
}

// finish fills m with every per-layer metric of the replay between the
// two snapshots, and writes the spans out.
func (tr *tracer) finish(m *measurement, cfg config, from layerSnapshot) error {
	for _, lm := range layerMetrics {
		m.set(lm.name, lm.unit, 0)
	}
	if tr.ops == 0 {
		return fmt.Errorf("traced run completed no op")
	}
	n := float64(tr.ops)
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tr.rec.mu.Lock()
	self := selfByName(tr.rec.spans)
	tr.rec.mu.Unlock()
	for name, metricName := range spanMetrics {
		m.set(metricName, "ms", self[name]/n)
	}
	to := tr.snapshot()
	delta := func(name string, labels ...string) int64 {
		return to.reg.Counter(name, labels...) - from.reg.Counter(name, labels...)
	}
	deltaSum := func(name string) int64 { return sumCounter(to.reg, name) - sumCounter(from.reg, name) }
	var hits, misses int64
	for k, v := range to.cache.Hits {
		hits += v - from.cache.Hits[k]
	}
	for k, v := range to.cache.Misses {
		misses += v - from.cache.Misses[k]
	}
	m.set("source.parses", "count", per(tr.own.Parses))
	m.set("source.reuse_ratio", "ratio", ratio(delta("source_reuse_total"), delta("source_files_loaded_total")))
	m.set("sast.extracts", "count", per(tr.own.Extracts))
	m.set("sast.hydrations", "count", per(delta("source_derived_hydrations_total", "kind", sast.ExtractKind)))
	m.set("llm.reviews_fresh", "count", per(tr.own.Reviews))
	m.set("llm.truncated_files", "count", per(tr.truncated))
	m.set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("cache.disk_loads", "count", per(to.cache.DiskLoads-from.cache.DiskLoads))
	m.set("cache.disk_writes", "count", per(tr.diskWrites))
	m.set("cache.evictions", "count", per(to.cache.Evictions-from.cache.Evictions))
	m.set("cache.bytes", "bytes", float64(to.cache.Bytes))
	m.set("planner.plan_entries", "count", per(tr.own.PlanEntries))
	m.set("planner.run_ratio", "ratio", ratio(tr.planned, tr.naive))
	m.set("testkit.runs", "count", per(tr.own.InjectionRuns))
	m.set("testkit.runs_failed", "count", per(tr.runsFailed))
	m.set("fault.injections", "count", per(deltaSum("fault_injections_total")))
	m.set("fault.suppressed", "count", per(deltaSum("fault_injections_suppressed_total")))
	m.set("oracle.reports_raw", "count", per(tr.rawReports))
	m.set("oracle.dedup_ratio", "ratio", ratio(tr.deduped, tr.rawReports))
	m.set("report.bytes", "bytes", per(tr.reportBytes))
	m.set("go.alloc_mb_per_op", "MB", float64(tr.allocBytes)/n/(1<<20))
	m.set("go.gcs_per_op", "count", float64(tr.gcs)/n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("go.gc_cpu_fraction", "ratio", ms.GCCPUFraction)
	m.set("trace.ops", "count", n)
	m.detail["work_counts"] = map[string]workCounts{"program": tr.prog, "layer_pass": tr.own}
	path, err := tr.rec.write(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	m.detail["spans"] = path
	return nil
}

// setOverhead reports the traced and untraced op medians and their
// difference, the tracing overhead.
func setOverhead(m *measurement, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	m.set("trace.op_ms.p50", "ms", t)
	m.set("trace.untraced_op_ms.p50", "ms", u)
	m.set("trace.overhead_ms", "ms", t-u)
	m.detail["trace_op_ms"] = map[string]summary{"traced": summarize(traced), "untraced": summarize(untraced)}
}

// traceClosed is the traced run of a closed-loop workload: the set-up
// system is u, and t and l are built in the same configuration and
// warmed on the same inputs.
func traceClosed(cfg config, st *closedState, rng *rand.Rand) (*measurement, error) {
	t, err := st.newWarmSystem("core")
	if err != nil {
		return nil, err
	}
	l, err := st.newWarmSystem("layers")
	if err != nil {
		return nil, err
	}
	tr := newTracer(st.sys, t, l)
	if err := tr.markParsed(st.in.Apps); err != nil {
		return nil, err
	}
	m := newMeasurement()
	from := tr.snapshot()
	runtime.GC()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for op := 1; time.Now().Before(deadline); op++ {
		m.attempted++
		if err := tr.step(op, st.in.Apps, st.draw(rng), st.ref); err != nil {
			m.fail(err)
		}
	}
	if err := tr.finish(m, cfg, from); err != nil {
		return nil, err
	}
	setOverhead(m, tr.traced, tr.untraced)
	return m, nil
}

// traceServe is the traced run of serve-mix. Two rate_mid phases run
// back to back against the live server: the first untraced, the second
// with a span around every HTTP call, which gives the server and load
// generator metrics and the tracing overhead. The second phase's jobs
// are then replayed offline, in order, through the tracer (on fresh
// systems in the daemon's configuration) for the layer metrics.
func traceServe(cfg config, st *serveState, rng *rand.Rand, total time.Duration) (*measurement, error) {
	m := newMeasurement()
	mid := phases[1]
	d := total / 3
	rec := newRecorder()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prA := runPhase(st, mid, schedule(st, mid, d, rng), nil)
	runtime.ReadMemStats(&m1)
	before := st.obs.Reg().Snapshot()
	prB := runPhase(st, mid, schedule(st, mid, d, rng), rec)
	after := st.obs.Reg().Snapshot()
	psA, psB := prA.stats(st, d), prB.stats(st, d)
	polls, done := 0, 0
	for _, pr := range []*phaseRun{prA, prB} {
		for _, j := range pr.jobs {
			m.attempted++
			if j.err != nil {
				m.fail(j.err)
			}
			if pr == prB && !j.doneAt.IsZero() {
				polls += j.polls
				done++
			}
		}
	}

	var systems [3]*system
	for i := range systems {
		sys, err := newSystem(true, "")
		if err != nil {
			return nil, err
		}
		if _, err := sys.analyze(st.in.Apps, 0); err != nil {
			return nil, err
		}
		systems[i] = sys
	}
	tr := newTracer(systems[0], systems[1], systems[2])
	tr.rec = rec
	if err := tr.markParsed(st.in.Apps); err != nil {
		return nil, err
	}
	from := tr.snapshot()
	deadline := time.Now().Add(d)
	for i, j := range prB.jobs {
		if !time.Now().Before(deadline) {
			break
		}
		set := st.menu[j.spec.set]
		// The live phase already wrote this edit's value, and the replay
		// systems were warmed after it; the complement is new content.
		e := j.spec.edit
		e.value = ^e.value
		m.attempted++
		if err := tr.step(i+1, set.apps, e, set.ref); err != nil {
			m.fail(err)
		}
	}
	if err := tr.finish(m, cfg, from); err != nil {
		return nil, err
	}
	hist := func(name string, q float64) float64 {
		a, _ := after.HistogramPoint(name)
		a.Counts = append([]int64(nil), a.Counts...)
		if b, ok := before.HistogramPoint(name); ok {
			for i := range a.Counts {
				a.Counts[i] -= b.Counts[i]
			}
			a.Count -= b.Count
		}
		return a.Quantile(q)
	}
	rec.mu.Lock()
	submits := durations(rec.spans, "http.submit")
	rec.mu.Unlock()
	m.set("server.submit_ms.p50", "ms", median(submits))
	m.set("server.polls_per_job", "count", float64(polls)/float64(max(done, 1)))
	m.set("server.queue_wait_ms.p50", "ms", hist("server_sched_job_wait_ms", 0.5))
	m.set("server.queue_wait_ms.p99", "ms", hist("server_sched_job_wait_ms", 0.99))
	m.set("server.run_ms.p50", "ms", hist("server_sched_job_run_ms", 0.5))
	m.set("server.run_ms.p99", "ms", hist("server_sched_job_run_ms", 0.99))
	m.set("server.slots_busy_max", "count", after.Gauge("server_sched_slots_busy_max"))
	m.set("server.backlog_end", "count", psB.BacklogEnd)
	m.set("server.refused_ratio", "ratio", float64(psB.Refused)/float64(max(psB.Jobs, 1)))
	m.set("loadgen.lag_ms.p99", "ms", psB.LagP99)
	m.set("loadgen.lag_ms.max", "ms", psB.LagMax)
	jobsA := float64(max(len(prA.jobs), 1))
	m.set("go.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/jobsA/(1<<20))
	m.set("go.gcs_per_op", "count", float64(m1.NumGC-m0.NumGC)/jobsA)
	setOverhead(m, psB.latencies, psA.latencies)
	m.detail["phases"] = map[string]phaseStats{"untraced": psA, "traced": psB}
	m.detail["poll_interval_ms"] = ms(pollInterval)
	return m, nil
}
