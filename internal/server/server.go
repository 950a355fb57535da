// Package server is WASABI-as-a-service: the HTTP front end that turns
// the one-shot batch pipeline into a long-running analysis daemon
// (cmd/wasabid). The paper prices a single batch run at ~2,600 GPT-4
// calls and ~$8 per app (§4.3); serving re-analysis behind the
// content-addressed cache (internal/cache) makes the steady state
// incremental instead — an unchanged corpus re-analyzes with zero fresh
// LLM spend, and a one-file change re-reviews one file.
//
// Surface (docs/SERVICE.md is the full reference):
//
//	POST /v1/analyze            submit an analysis job (tenant queue full → 429)
//	GET  /v1/jobs/{id}          job status, and the canonical JSON report when done
//	GET  /v1/jobs/{id}/trace    the job's span tree (Chrome trace-event JSON)
//	GET  /v1/traces             index of retained traces, newest first
//	GET  /v1/reports/{app}      latest completed report section for one app
//	GET  /healthz               liveness (503 while draining)
//	GET  /metrics               Prometheus text exposition of the registry
//
// Jobs execute concurrently on Config.SchedulerSlots worker slots fed by
// per-tenant fair queues (scheduler.go, docs/SCHEDULING.md): every
// submission carries a tenant key (default DefaultTenant), tenants are
// served weighted round-robin under per-tenant in-flight quotas, and a
// full tenant queue answers 429 without affecting other tenants.
// Concurrency *inside* a job (core.Options.Workers) stays bounded and
// deterministic; every job shares the server's cache, snapshot store and
// metrics registry. Shutdown is a graceful drain: accepted jobs (queued
// or running) complete, new submissions are refused, and only then does
// the listener stop.
//
// Every job is observable end to end (docs/OBSERVABILITY.md "Daemon
// tracing"): submission mints a job context — job id, tenant, trace id —
// that rides every structured log event (log.go), every span of the
// job's private tracer (queue-wait → slot run → pipeline stages →
// per-file reviews), and the per-tenant cost series
// server_tenant_llm_tokens_total / server_tenant_job_ms that pair fair
// scheduling with fair billing.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// DefaultTenant is the tenant key of submissions that name none — the
// pre-tenancy API shape keeps working and lands in one shared queue.
const DefaultTenant = "shared"

// maxTenantLen bounds tenant names; they become metric label values, so
// unbounded attacker-chosen strings would bloat the registry.
const maxTenantLen = 64

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address ("host:port"; ":0" picks a free port).
	Addr string
	// QueueDepth bounds each tenant's job queue; submissions beyond it
	// are refused with 429 for that tenant only. Zero means 8.
	QueueDepth int
	// SchedulerSlots is how many jobs run concurrently (the worker slot
	// count of the scheduler). Zero derives from the host: GOMAXPROCS,
	// floored at 2 so tenants overlap even on one core (job runtime is
	// not purely CPU-bound once the cache and disk tiers are warm).
	SchedulerSlots int
	// TenantQuota caps how many slots one tenant may occupy at once.
	// Zero means SchedulerSlots (a lone tenant may use every slot; set
	// it lower to guarantee idle headroom for late arrivals).
	TenantQuota int
	// TenantPriority maps tenant name → round-robin weight (≥1). A
	// tenant with weight w gets up to w consecutive picks per scheduling
	// cycle; unlisted tenants weigh 1. See docs/SCHEDULING.md.
	TenantPriority map[string]int
	// PipelineWorkers is core.Options.Workers for every job (0 = one per
	// CPU).
	PipelineWorkers int
	// Cache, when non-nil, is shared by every job (and its hit/miss
	// counters appear in /metrics when it was built on Obs's registry).
	Cache *cache.Cache
	// Fault, when non-nil, runs every job against an unreliable
	// simulated LLM backend (chaos drills; see docs/RESILIENCE.md).
	Fault *llm.FaultProfile
	// LLMBackends, when non-empty, routes every job's reviews across a
	// multi-backend topology (docs/RESILIENCE.md "Backend topology").
	// The daemon builds ONE shared llm.MultiTransport, so breaker state,
	// the shared retry/hedge budget, and singleflight coalescing span
	// jobs and tenants. Mutually exclusive with Fault.
	LLMBackends []llm.BackendSpec
	// LLMHedgeAfter launches a hedged attempt on the next healthy
	// backend after this much silence from the preferred one (0 disables
	// hedging). Only meaningful with LLMBackends.
	LLMHedgeAfter time.Duration
	// Obs observes the daemon: job, queue and scheduler metrics, plus
	// every pipeline metric of every job, accumulate in its registry,
	// which /metrics serves. Nil disables observability (including
	// /metrics content).
	Obs *obs.Observer
	// Pprof, when true, exposes the Go runtime profiler under
	// /debug/pprof/ (docs/SERVICE.md). Off by default: the endpoints
	// leak operational detail and cost CPU while profiling, so they are
	// opt-in (cmd/wasabid's -pprof flag).
	Pprof bool
	// Log receives the daemon's structured events (log.go catalogs
	// them); cmd/wasabid builds it from -log-format/-log-level. Nil
	// discards.
	Log *slog.Logger
	// TraceRing bounds how many completed job traces the daemon retains
	// for GET /v1/jobs/{id}/trace (oldest evicted first), and how many
	// finished jobs (with their reports) GET /v1/jobs/{id} still serves.
	// Zero means DefaultTraceRing.
	TraceRing int
	// Corpus, when non-empty, replaces the built-in seed corpus as the
	// population jobs analyze — cmd/wasabid builds it from a generated
	// corpus root (-corpus, docs/CORPUSGEN.md). Analyze requests resolve
	// their app codes against this set.
	Corpus []corpus.App
}

// Server is the analysis daemon. Create with New, run with Start, stop
// with Shutdown.
type Server struct {
	cfg  Config
	obs  *obs.Observer
	http *http.Server
	ln   net.Listener
	// source is the daemon-lifetime snapshot store every job loads
	// corpus bytes through: content unchanged between jobs is never
	// re-parsed — and concurrent jobs over the same corpus parse each
	// file exactly once between them (per-entry sync.Once), which the
	// many-jobs race test pins (docs/PERFORMANCE.md).
	source *source.Store
	// sched fans submissions out to worker slots through per-tenant
	// fair queues (scheduler.go).
	sched *scheduler
	// runJob executes one job; it is s.run except in scheduler tests,
	// which substitute timed synthetic jobs to prove wall-clock overlap
	// and fairness without corpus noise.
	runJob func(*job)
	// log receives structured events (never nil; defaults to discard).
	log *slog.Logger
	// llmMulti and llmFlight are the daemon-lifetime multi-backend
	// transport and singleflight group (nil without LLMBackends): one of
	// each per process, shared by every job, so backend health outlives
	// jobs and identical concurrent reviews coalesce across tenants.
	llmMulti  *llm.MultiTransport
	llmFlight *llm.Flight
	// traces retains completed jobs' span trees (tracering.go).
	traces *traceRing
	// started is stamped by Start; server_uptime_seconds derives from it.
	started time.Time

	mu       sync.Mutex
	draining bool
	nextID   int
	// jobs holds every queued and running job plus the finished ones
	// whose traces the ring still holds, so a long-lived daemon does not
	// keep every report it ever produced.
	jobs       map[string]*job
	appReports map[string][]byte
}

// job is one queued analysis request and its outcome.
type job struct {
	id     string
	tenant string
	// traceID is the job's wire-visible trace identity, minted at
	// submission alongside the id; logs, spans and the trace index all
	// carry it, so external systems can join on either.
	traceID string
	apps    []corpus.App
	// submitted and started bound the queue-wait; started is stamped by
	// the scheduler when a slot picks the job.
	submitted time.Time
	started   time.Time

	// Guarded by Server.mu after submission.
	state  string // "queued" | "running" | "done" | "failed"
	err    string
	report []byte
	fresh  llm.Usage
}

// newTraceID mints a 64-bit random hex trace id.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to refuse work; the job id
		// stays the unique key in that case.
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.SchedulerSlots <= 0 {
		cfg.SchedulerSlots = runtime.GOMAXPROCS(0)
		if cfg.SchedulerSlots < 2 {
			cfg.SchedulerSlots = 2
		}
	}
	if cfg.TenantQuota <= 0 || cfg.TenantQuota > cfg.SchedulerSlots {
		cfg.TenantQuota = cfg.SchedulerSlots
	}
	log := cfg.Log
	if log == nil {
		log = discardLogger()
	}
	s := &Server{
		cfg:        cfg,
		obs:        cfg.Obs,
		log:        log,
		source:     source.NewStore(cfg.Obs.Reg()),
		jobs:       make(map[string]*job),
		appReports: make(map[string][]byte),
		traces:     newTraceRing(cfg.TraceRing, cfg.Obs.Reg()),
		sched:      newScheduler(cfg.SchedulerSlots, cfg.TenantQuota, cfg.QueueDepth, cfg.TenantPriority, cfg.Obs.Reg(), log),
	}
	s.runJob = s.run
	if len(cfg.LLMBackends) > 0 {
		lcfg := llm.DefaultConfig()
		lcfg.Backends = cfg.LLMBackends
		lcfg.HedgeAfter = cfg.LLMHedgeAfter
		lcfg.Log = log
		mt, err := llm.NewMultiTransport(lcfg)
		if err != nil {
			// Specs come from ParseBackends (cmd/wasabid validates the
			// flag); reaching here is programmer error.
			panic(err)
		}
		s.llmMulti = mt.Instrument(cfg.Obs.Reg())
		s.llmFlight = llm.NewFlight()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/reports/{app}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: mux}
	s.obs.Reg().Gauge("server_queue_capacity").Set(float64(cfg.QueueDepth))
	s.obs.Reg().Gauge("wasabi_build_info", "version", Version, "go_version", runtime.Version()).Set(1)
	return s
}

// Start binds the listen address, launches the scheduler's worker slots
// and begins serving. It returns once the listener is bound; Addr
// reports the bound address (useful with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.started = time.Now()
	s.sched.start(func(j *job) { s.runJob(j) })
	go s.http.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	s.log.Info(evServerStart, "addr", s.Addr(), "slots", s.cfg.SchedulerSlots, "version", Version)
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon: new submissions are refused (healthz turns
// 503 so load balancers stop routing), every accepted job — queued on
// any tenant or running on any slot — runs to completion, then the HTTP
// listener closes. The context bounds the wait; on expiry the listener
// is closed anyway and the error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info(evServerDrain)
	s.sched.drain()
	var err error
	select {
	case <-s.sched.done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.http.Close()
	uptime := 0.0
	if !s.started.IsZero() {
		uptime = time.Since(s.started).Seconds()
	}
	s.log.Info(evServerStop, "uptime_s", uptime)
	return err
}

// run executes one job through the pipeline. Multiple runs execute
// concurrently (one per busy slot); everything they share — cache,
// snapshot store, registry — is goroutine-safe, and per-job state lives
// in the job's own core.Wasabi instance.
//
// Observability scoping: the job gets a *private* tracer anchored at
// submission — so queue-wait is the first span of its own trace — with
// the job's correlation identity stamped on every span, while metrics
// keep flowing into the shared daemon registry. The pipeline's root
// "corpus" span is re-parented under the job's "run" span
// (SetRootParent), producing one connected tree per job: job →
// queue-wait + run → corpus → app → stages → per-file reviews.
func (s *Server) run(j *job) {
	s.mu.Lock()
	j.state = "running"
	s.mu.Unlock()
	start := time.Now()
	s.logJob(evJobStart, j, "queue_wait_ms", durMS(start.Sub(j.submitted)))

	tr := obs.NewTracerAt(j.submitted)
	tr.SetProcessName("wasabid " + j.id)
	tr.SetCommonArgs("job_id", j.id, "tenant", j.tenant, "trace_id", j.traceID)
	tr.SetRootParent("run")

	opts := core.DefaultOptions()
	opts.Workers = s.cfg.PipelineWorkers
	opts.Obs = s.obs.WithTracer(tr)
	opts.Cache = s.cfg.Cache
	opts.Source = s.source
	switch {
	case s.llmMulti != nil:
		// Backends is set alongside Multi so the per-job client's
		// fingerprint reflects the topology; the shared transport and
		// flight group carry the cross-job state.
		opts.LLM.Backends = s.cfg.LLMBackends
		opts.LLM.HedgeAfter = s.cfg.LLMHedgeAfter
		opts.LLM.Multi = s.llmMulti
		opts.LLM.Flight = s.llmFlight
		opts.LLM.Log = s.log
	case s.cfg.Fault != nil:
		opts.LLM.Fault = s.cfg.Fault
	}
	w := core.New(opts)
	cr, err := w.RunCorpus(j.apps)

	// Build and marshal outside the server lock; only state publication
	// needs it.
	var data []byte
	appData := map[string][]byte{}
	if err == nil {
		doc := report.Build(cr)
		if data, err = report.Marshal(doc); err == nil {
			for _, app := range doc.Apps {
				if d, aerr := report.MarshalApp(app); aerr == nil {
					appData[app.Code] = d
				}
			}
		}
	}

	end := time.Now()
	state := "done"
	if err != nil {
		state = "failed"
	}
	fresh := w.LLMUsage()

	// Close out the job's span tree with the scheduler-side envelope
	// spans the pipeline could not see, then freeze it into the ring.
	tr.Record("queue-wait", "sched", j.submitted, start, "parent", "job")
	tr.Record("run", "sched", start, end, "parent", "job")
	tr.Record("job", "job", j.submitted, end, "state", state,
		"fresh_tokens", fmt.Sprintf("%d", fresh.TokensIn))
	var traceBuf bytes.Buffer
	tr.WriteJSON(&traceBuf) //nolint:errcheck // bytes.Buffer cannot fail
	meta := traceMeta{
		JobID: j.id, Tenant: j.tenant, TraceID: j.traceID, State: state,
		Spans: tr.SpanCount(), DurationMS: durMS(end.Sub(j.submitted)),
	}

	// Tenant cost attribution. server_tenant_llm_tokens_total counts the
	// same event as llm_tokens_in_total — a fresh (uncached, undegraded)
	// review charging the backend — just keyed by who asked, so summing
	// it across live tenants plus the "_retired" fold (eviction moves a
	// leaving tenant's counts there; scheduler.go) equals the fleet
	// counter's growth exactly. Singleflight followers preserve the
	// invariant for free: a coalesced review never runs the charging
	// path, so the leader's tenant pays and the follower adds zero.
	reg := s.obs.Reg()
	reg.Counter("server_tenant_llm_tokens_total", "tenant", j.tenant).Add(fresh.TokensIn)
	reg.Histogram("server_tenant_job_ms", obs.LatencyBuckets, "tenant", j.tenant).Observe(durMS(end.Sub(start)))

	if err == nil {
		if n := len(cr.DegradedFiles()); n > 0 {
			s.logJob(evJobDegraded, j, "degraded_files", n)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	reg.Histogram("server_job_ms", obs.LatencyBuckets).Observe(durMS(end.Sub(start)))
	// Store the trace under s.mu so a job and its trace leave together:
	// the ring evicts only finished jobs, and the job table drops exactly
	// those, keeping one shared window of the last -trace-ring finished
	// jobs.
	for _, id := range s.traces.put(meta, traceBuf.Bytes()) {
		delete(s.jobs, id)
	}
	if err != nil {
		j.state, j.err = "failed", err.Error()
		reg.Counter("server_jobs_total", "status", "failed").Inc()
		s.logJob(evJobFinish, j, "state", state, "run_ms", durMS(end.Sub(start)), "error", err.Error())
		return
	}
	j.report = data
	for code, d := range appData {
		s.appReports[code] = d
	}
	j.state = "done"
	j.fresh = fresh
	reg.Counter("server_jobs_total", "status", "done").Inc()
	s.logJob(evJobFinish, j, "state", state, "run_ms", durMS(end.Sub(start)),
		"fresh_tokens", fresh.TokensIn, "spans", tr.SpanCount())
}

// durMS renders a duration as float milliseconds (the unit every
// latency histogram and log field uses).
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// analyzeRequest is the POST /v1/analyze body.
type analyzeRequest struct {
	// Apps lists corpus short codes; empty means the full corpus.
	Apps []string `json:"apps"`
	// Tenant keys the submission to a fair queue (docs/SCHEDULING.md).
	// Empty means DefaultTenant, which keeps pre-tenancy clients working.
	Tenant string `json:"tenant"`
}

// jobView is the wire shape of a job (also the POST /v1/analyze
// response, minus report).
type jobView struct {
	ID      string   `json:"id"`
	State   string   `json:"state"`
	Tenant  string   `json:"tenant"`
	TraceID string   `json:"trace_id"`
	Apps    []string `json:"apps"`
	Error   string   `json:"error,omitempty"`
	// FreshLLM is the LLM traffic the job actually generated — zero for
	// a fully cache-served run, unlike the report's attributed usage.
	FreshLLM *freshUsage `json:"fresh_llm,omitempty"`
	// Report is the canonical JSON document (internal/report), present
	// once the job is done.
	Report json.RawMessage `json:"report,omitempty"`
}

// freshUsage is llm.Usage with stable JSON keys.
type freshUsage struct {
	Calls    int     `json:"calls"`
	TokensIn int64   `json:"tokens_in"`
	CostUSD  float64 `json:"cost_usd"`
}

// resolveApps maps request app codes onto the daemon's population: the
// configured Corpus when one was injected, the built-in seed corpus
// otherwise. Empty codes mean the whole population.
func (s *Server) resolveApps(codes []string) ([]corpus.App, error) {
	if len(s.cfg.Corpus) == 0 {
		if len(codes) == 0 {
			return corpus.Apps(), nil
		}
		apps := make([]corpus.App, 0, len(codes))
		for _, code := range codes {
			app, err := corpus.ByCode(code)
			if err != nil {
				return nil, err
			}
			apps = append(apps, app)
		}
		return apps, nil
	}
	if len(codes) == 0 {
		return s.cfg.Corpus, nil
	}
	byCode := make(map[string]corpus.App, len(s.cfg.Corpus))
	for _, app := range s.cfg.Corpus {
		byCode[app.Code] = app
	}
	apps := make([]corpus.App, 0, len(codes))
	for _, code := range codes {
		app, ok := byCode[code]
		if !ok {
			return nil, fmt.Errorf("unknown app code %q in the configured corpus", code)
		}
		apps = append(apps, app)
	}
	return apps, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var req analyzeRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
	}
	tenant := strings.TrimSpace(req.Tenant)
	if tenant == "" {
		tenant = DefaultTenant
	}
	if len(tenant) > maxTenantLen {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("tenant name longer than %d bytes", maxTenantLen))
		return
	}
	if strings.HasPrefix(tenant, "_") {
		// "_"-prefixed names are reserved for server-side aggregates (the
		// "_retired" eviction fold); a tenant squatting one would corrupt
		// the cost-attribution series.
		httpError(w, http.StatusBadRequest, "tenant names starting with _ are reserved")
		return
	}
	apps, err := s.resolveApps(req.Apps)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.obs.Reg().Counter("server_jobs_total", "status", "rejected").Inc()
		s.log.Info(evJobRejected, "tenant", tenant, "reason", "draining", "status", http.StatusServiceUnavailable)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		tenant:    tenant,
		traceID:   newTraceID(),
		apps:      apps,
		submitted: time.Now(),
		state:     "queued",
	}
	queued, err := s.sched.enqueue(j)
	if err != nil {
		s.nextID-- // not accepted: reuse the id
		s.mu.Unlock()
		s.obs.Reg().Counter("server_jobs_total", "status", "rejected").Inc()
		if err == errDraining {
			s.log.Info(evJobRejected, "tenant", tenant, "reason", "draining", "status", http.StatusServiceUnavailable)
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.log.Info(evJobRejected, "tenant", tenant, "reason", "queue-full", "status", http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant job queue full")
		return
	}
	s.jobs[j.id] = j
	view := s.viewLocked(j, false)
	s.mu.Unlock()

	s.obs.Reg().Counter("server_jobs_total", "status", "accepted").Inc()
	s.logJob(evJobAccepted, j, "apps", len(apps), "queue_depth", queued)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown or evicted job")
		return
	}
	view := s.viewLocked(j, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// viewLocked renders a job's wire shape; s.mu must be held.
func (s *Server) viewLocked(j *job, includeReport bool) jobView {
	v := jobView{ID: j.id, State: j.state, Tenant: j.tenant, TraceID: j.traceID, Error: j.err}
	for _, app := range j.apps {
		v.Apps = append(v.Apps, app.Code)
	}
	if j.state == "done" {
		v.FreshLLM = &freshUsage{Calls: j.fresh.Calls, TokensIn: j.fresh.TokensIn, CostUSD: j.fresh.CostUSD}
		if includeReport {
			v.Report = j.report
		}
	}
	return v
}

// handleJobTrace serves a completed job's span tree as Chrome
// trace-event JSON (open it in Perfetto / about://tracing as-is). Traces
// exist only for completed jobs still inside the bounded ring; the 404
// message distinguishes "not finished yet" from "evicted or unknown".
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.traces.get(id)
	if !ok {
		s.mu.Lock()
		j, known := s.jobs[id]
		state := ""
		if known {
			state = j.state
		}
		s.mu.Unlock()
		if known && (state == "queued" || state == "running") {
			httpError(w, http.StatusNotFound, "trace not available until the job completes")
			return
		}
		httpError(w, http.StatusNotFound, "no trace retained for job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleTraces serves the trace ring's index, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.index()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	data, ok := s.appReports[r.PathValue("app")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no completed report for app")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// schedQuantiles is the percentile set /metrics summarizes the
// scheduler's wait/run histograms at.
var schedQuantiles = []float64{0.5, 0.9, 0.99}

// addSchedSummaries derives quantile gauges from the scheduler's latency
// histograms and inserts them into the snapshot (sorted, so the
// exposition stays deterministic for a given snapshot). The source
// histograms carry wall-clock facts, so the values vary run to run; only
// their presence and ordering are stable.
func addSchedSummaries(snap *obs.Snapshot) {
	for _, name := range []string{"server_sched_job_wait_ms", "server_sched_job_run_ms"} {
		h, ok := snap.HistogramPoint(name)
		if !ok || h.Count == 0 {
			continue
		}
		for _, q := range schedQuantiles {
			snap.AddGauge(name+"_quantile", h.Quantile(q), "q", fmt.Sprintf("%.2f", q))
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.obs.Reg().Snapshot()
	addSchedSummaries(&snap)
	// Uptime is derived at render time rather than kept as mutable
	// registry state nothing else reads (same pattern as the scheduler
	// quantiles).
	if !s.started.IsZero() {
		snap.AddGauge("server_uptime_seconds", time.Since(s.started).Seconds())
	}
	obs.WriteText(w, snap) //nolint:errcheck // client gone
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}
