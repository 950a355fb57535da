// Command wasabid runs the WASABI pipeline as a long-lived analysis
// daemon (internal/server) fronted by the content-addressed cache
// (internal/cache), so repeated analysis of an unchanged corpus costs
// zero fresh LLM tokens. docs/SERVICE.md documents the HTTP API.
//
// Usage:
//
//	wasabid [-addr :8788] [-queue 8] [-workers N] [-corpus DIR]
//	        [-slots N] [-tenant-quota N] [-tenant-priority name=w,...]
//	        [-cache-dir DIR] [-cache-bytes N] [-pprof]
//	        [-llm-fault-profile none|light|heavy|outage|k=v,...]
//	        [-llm-outage-after N]
//	        [-llm-backends name=sim[:profile];name=http:URL;...]
//	        [-llm-hedge-after DUR]
//	        [-log-format text|json] [-log-level LEVEL] [-trace-ring N]
//	        [-version]
//
// -corpus points the daemon at a generated corpus root (cmd/corpusgen,
// docs/CORPUSGEN.md) instead of the built-in seed corpus: every job's
// app codes resolve against the generated population.
//
// Jobs run concurrently on -slots worker slots fed by per-tenant fair
// queues (docs/SCHEDULING.md): -queue bounds each tenant's backlog,
// -tenant-quota caps one tenant's concurrent slots, and -tenant-priority
// grants named tenants extra round-robin weight.
//
// Structured logs go to stderr (-log-format json for machine
// consumption; every job event carries job_id/tenant/trace_id — the
// event catalog is in docs/OBSERVABILITY.md), and each completed job's
// span tree is retained in a -trace-ring-bounded ring served at
// GET /v1/jobs/{id}/trace; the same bound caps how many finished jobs
// GET /v1/jobs/{id} still serves.
//
// The daemon prints its bound address on startup ("-addr :0" picks a
// free port) and drains gracefully on SIGTERM/SIGINT: accepted jobs run
// to completion, new submissions are refused with 503, then the
// listener closes. A second signal aborts the drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/corpusgen"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/server"
)

func main() {
	addr := flag.String("addr", ":8788", "listen address (\":0\" picks a free port)")
	queue := flag.Int("queue", 8, "per-tenant job queue depth; submissions beyond it get 429")
	slots := flag.Int("slots", 0, "concurrent job slots; 0 = GOMAXPROCS (min 2)")
	tenantQuota := flag.Int("tenant-quota", 0, "max concurrent jobs per tenant; 0 = slots")
	tenantPriority := flag.String("tenant-priority", "", "round-robin weights as name=w,... (unlisted tenants weigh 1)")
	workers := flag.Int("workers", 0, "pipeline worker pool size per job; 0 = one per CPU")
	corpusRoot := flag.String("corpus", "", "generated corpus root (cmd/corpusgen); empty = built-in seed corpus")
	cacheDir := flag.String("cache-dir", "", "persist the analysis cache in this directory (empty = memory only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory cache byte budget (0 = default)")
	faultProfile := flag.String("llm-fault-profile", "",
		fmt.Sprintf("simulate an unreliable LLM backend for every job: %v or key=value list (see docs/RESILIENCE.md)", llm.ProfileNames()))
	outageAfter := flag.Int("llm-outage-after", 0, "take the LLM backend hard-down from the Nth review of each job (0 = never)")
	backends := flag.String("llm-backends", "",
		"route reviews across an ordered multi-backend topology: \"name=sim[:profile];name=http:URL;...\" (see docs/RESILIENCE.md); mutually exclusive with -llm-fault-profile")
	hedgeAfter := flag.Duration("llm-hedge-after", 0,
		"launch a hedged attempt on the next healthy backend after this much silence (0 = no hedging; needs -llm-backends)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for accepted jobs to finish")
	pprofOn := flag.Bool("pprof", false, "expose the Go runtime profiler under /debug/pprof/ (see docs/PERFORMANCE.md)")
	logFormat := flag.String("log-format", "text", "structured log encoding on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	traceRing := flag.Int("trace-ring", 0, "completed job traces, and finished jobs, to retain for GET /v1/jobs/{id}/trace and GET /v1/jobs/{id} (0 = default)")
	showVersion := flag.Bool("version", false, "print the wasabi version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("wasabid %s %s\n", server.Version, runtime.Version())
		return
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	priorities, err := parsePriorities(*tenantPriority)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	observer := obs.New()
	cfg := server.Config{
		Addr:            *addr,
		QueueDepth:      *queue,
		SchedulerSlots:  *slots,
		TenantQuota:     *tenantQuota,
		TenantPriority:  priorities,
		PipelineWorkers: *workers,
		Obs:             observer,
		Pprof:           *pprofOn,
		Log:             logger,
		TraceRing:       *traceRing,
	}
	ca, err := cache.New(cache.Options{Dir: *cacheDir, MaxBytes: *cacheBytes, Metrics: observer.Reg()})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.Cache = ca
	if *corpusRoot != "" {
		apps, _, err := corpusgen.LoadApps(*corpusRoot)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Corpus = apps
	}
	if *faultProfile != "" || *outageAfter > 0 {
		profile, err := llm.ParseFaultProfile(*faultProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *outageAfter > 0 {
			profile.OutageAfterFiles = *outageAfter
		}
		cfg.Fault = &profile
	}
	if *backends != "" {
		if cfg.Fault != nil {
			fmt.Fprintln(os.Stderr, "wasabid: -llm-backends and -llm-fault-profile/-llm-outage-after are mutually exclusive; put per-backend fault profiles in the topology (name=sim:profile)")
			os.Exit(2)
		}
		specs, err := llm.ParseBackends(*backends)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.LLMBackends = specs
		cfg.LLMHedgeAfter = *hedgeAfter
	} else if *hedgeAfter > 0 {
		fmt.Fprintln(os.Stderr, "wasabid: -llm-hedge-after needs -llm-backends (hedging routes across a topology)")
		os.Exit(2)
	}

	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wasabid: listening on %s (slots %s, per-tenant queue %d, cache %s)\n",
		srv.Addr(), slotsLabel(*slots), *queue, cacheLabel(*cacheDir))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	<-ctx.Done()
	stop() // a second signal now kills the process instead of the drain
	fmt.Fprintln(os.Stderr, "wasabid: draining (accepted jobs run to completion)")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := ca.Stats()
	fmt.Fprintf(os.Stderr, "wasabid: drained; cache %d hits, %d misses, %d evictions, %d entries, %d bytes\n",
		st.Hits[cache.StageReview]+st.Hits[cache.StageAnalysis],
		st.Misses[cache.StageReview]+st.Misses[cache.StageAnalysis],
		st.Evictions, st.Entries, st.Bytes)
}

// buildLogger assembles the daemon's slog handler from the -log-format
// and -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("wasabid: -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("wasabid: -log-format %q is not text or json", format)
	}
}

// cacheLabel describes the cache configuration for the startup line.
func cacheLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return "persisted in " + dir
}

// slotsLabel describes the scheduler sizing for the startup line.
func slotsLabel(slots int) string {
	if slots <= 0 {
		return "auto"
	}
	return strconv.Itoa(slots)
}

// parsePriorities parses the -tenant-priority "name=w,..." list.
func parsePriorities(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("wasabid: -tenant-priority entry %q is not name=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("wasabid: -tenant-priority weight for %q must be a positive integer", name)
		}
		out[name] = w
	}
	return out, nil
}
