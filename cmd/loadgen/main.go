// Command loadgen hammers a wasabid daemon with analysis jobs from many
// simulated tenants and reports throughput, backpressure and latency —
// the load side of the multi-tenant scheduler (docs/SCHEDULING.md).
//
// Usage:
//
//	loadgen -tenants 100 -jobs 2 -apps HD             # self-hosted daemon
//	loadgen -addr http://localhost:8788 -tenants 100  # running daemon
//	loadgen -corpus DIR -gen-apps 8 -tenants 50       # generated corpus
//
// With -addr empty, loadgen starts an in-process wasabid (flags -slots,
// -quota, -queue, -workers shape it) so the result also captures the
// server-side scheduler stats (slot high-water mark, wait/run latency
// quantiles); against a remote daemon those fields read zero and the
// client-side numbers stand alone. The result (server.LoadResult) is
// printed as JSON on stdout. It is one sample: for repeated, seeded
// measurements use perfbench's serve-mix workload (perfbench/README.md).
//
// -corpus points the in-process daemon at a generated corpus root
// (cmd/corpusgen, docs/CORPUSGEN.md) instead of the built-in seed
// corpus, and -gen-apps N makes each job analyze the first N generated
// applications — the knob for driving the scheduler with synthetic
// populations much larger than the seed. An explicit -apps list of
// generated codes ("G001,G002") overrides -gen-apps.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/corpusgen"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/server"
)

func main() {
	addr := flag.String("addr", "", "target daemon base URL; empty starts an in-process wasabid")
	tenants := flag.Int("tenants", 100, "simulated tenants")
	jobs := flag.Int("jobs", 2, "jobs submitted per tenant")
	appsFlag := flag.String("apps", "HD", "comma-separated corpus codes per job; empty = full corpus")
	corpusRoot := flag.String("corpus", "", "in-process daemon: generated corpus root (cmd/corpusgen); empty = built-in seed corpus")
	genApps := flag.Int("gen-apps", 1, "with -corpus: analyze the first N generated apps per job (ignored when -apps is set explicitly)")
	slots := flag.Int("slots", 0, "in-process daemon: scheduler worker slots (0 = auto)")
	quota := flag.Int("quota", 0, "in-process daemon: per-tenant in-flight quota (0 = slots)")
	queue := flag.Int("queue", 4, "in-process daemon: per-tenant queue depth")
	workers := flag.Int("workers", 1, "in-process daemon: pipeline workers per job")
	backends := flag.String("llm-backends", "", "in-process daemon: multi-backend LLM topology (name=sim[:profile];... — see docs/RESILIENCE.md)")
	hedgeAfter := flag.Duration("llm-hedge-after", 0, "in-process daemon: hedge onto the next healthy backend after this much silence")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	flag.Parse()

	var genCorpus []corpus.App
	if *corpusRoot != "" {
		if *addr != "" {
			fatal(fmt.Errorf("-corpus shapes the in-process daemon and cannot be combined with -addr"))
		}
		var err error
		genCorpus, _, err = corpusgen.LoadApps(*corpusRoot)
		if err != nil {
			fatal(err)
		}
	}

	var codes []string
	appsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "apps" {
			appsSet = true
		}
	})
	switch {
	case genCorpus != nil && !appsSet:
		// Drive the daemon with the first -gen-apps generated apps.
		n := *genApps
		if n <= 0 || n > len(genCorpus) {
			n = len(genCorpus)
		}
		for _, app := range genCorpus[:n] {
			codes = append(codes, app.Code)
		}
	case *appsFlag != "":
		codes = strings.Split(*appsFlag, ",")
	}
	opt := server.LoadOptions{Tenants: *tenants, Jobs: *jobs, Apps: codes, Timeout: *timeout}

	base := *addr
	var observer *obs.Observer
	if base == "" {
		observer = obs.New()
		ca, err := cache.New(cache.Options{Metrics: observer.Reg()})
		if err != nil {
			fatal(err)
		}
		scfg := server.Config{
			Addr:            "127.0.0.1:0",
			QueueDepth:      *queue,
			SchedulerSlots:  *slots,
			TenantQuota:     *quota,
			PipelineWorkers: *workers,
			Cache:           ca,
			Obs:             observer,
			Corpus:          genCorpus,
		}
		if *backends != "" {
			specs, err := llm.ParseBackends(*backends)
			if err != nil {
				fatal(err)
			}
			scfg.LLMBackends = specs
			scfg.LLMHedgeAfter = *hedgeAfter
		}
		srv := server.New(scfg)
		if err := srv.Start(); err != nil {
			fatal(err)
		}
		base = "http://" + srv.Addr()
		fmt.Fprintf(os.Stderr, "loadgen: in-process wasabid on %s\n", base)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
		}()
	}

	res, err := server.RunLoad(base, opt)
	if err != nil {
		fatal(err)
	}
	if observer != nil {
		server.AttachSchedStats(res, observer.Reg().Snapshot())
	}
	sampleTrace(base)
	sampleBackends(base)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// sampleTrace spot-checks the daemon's per-job tracing after the run:
// it reads the trace index and pulls the newest job's span tree,
// reporting what one job's trace looks like under this load (span count
// and serialized size). Diagnostics only — printed to stderr, never part
// of the result JSON — and best-effort: a pre-tracing daemon just reports
// that traces are unavailable.
func sampleTrace(base string) {
	var idx struct {
		Traces []struct {
			JobID      string  `json:"job_id"`
			Tenant     string  `json:"tenant"`
			Spans      int     `json:"spans"`
			Bytes      int     `json:"bytes"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"traces"`
	}
	resp, err := http.Get(base + "/v1/traces")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: trace index unavailable: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "loadgen: trace index unavailable (status %d)\n", resp.StatusCode)
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil || len(idx.Traces) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: trace index empty")
		return
	}
	newest := idx.Traces[0]
	fmt.Fprintf(os.Stderr, "loadgen: %d traces retained; newest %s (tenant %s): %d spans, %d bytes, %.1f ms; GET %s/v1/jobs/%s/trace\n",
		len(idx.Traces), newest.JobID, newest.Tenant, newest.Spans, newest.Bytes, newest.DurationMS, base, newest.JobID)
}

// sampleBackends reports the daemon's multi-backend routing counters
// (llm_backend_* — failovers, hedges, coalesced reviews) after the run.
// Diagnostics only, stderr only, best-effort: a single-backend daemon
// has no such series and prints nothing.
func sampleBackends(base string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "llm_backend_") {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "loadgen: multi-backend routing under this load:\n")
	for _, line := range lines {
		fmt.Fprintf(os.Stderr, "loadgen:   %s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
