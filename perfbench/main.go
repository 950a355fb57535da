// Command perfbench is the repository's benchmark. It drives the WASABI
// pipeline only through its public packages (core, report, server and
// the layers below them) on three workloads:
//
//   - seed-cold: one client, closed loop; each op is a cold analysis of
//     the 8-app seed corpus, as the one-shot CLI runs it.
//   - gen-edit: one client, closed loop over a generated 80-app corpus
//     with a long-lived store and disk cache; each op edits one file and
//     re-analyses the corpus, the daemon's steady state.
//   - serve-mix: open loop over loopback HTTP into an in-process
//     server; Poisson arrivals at three fixed rates from 4 tenants.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload seed-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced replay and reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it carries the detail
// (sample counts, resolved tail percentiles, environment, staging root).
// README.md lists every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records what the numbers were measured on.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	StageRoot  string `json:"stage_root"`
}

// measurement is what one workload run hands back: the contract fields
// plus a free-form detail object printed on the line before the result.
type measurement struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	// ungated are measured figures that BENCHMARK.json does not bound:
	// the wall-clock ones, which host steal moves more than any bound
	// allows, and the ratios that read 0 on a healthy run. The detail
	// line prints them with their units.
	ungated map[string]metric
	detail  map[string]any
}

func newMeasurement() *measurement {
	return &measurement{metrics: map[string]metric{}, ungated: map[string]metric{}, detail: map[string]any{}}
}

// set records one metric.
func (r *measurement) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records one ungated figure.
func (r *measurement) note(name, unit string, v float64) {
	r.ungated[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed op and keeps its reason (the first few only).
func (r *measurement) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// workloads maps a name to the function that runs it.
var workloads = map[string]func(cfg config) (*measurement, error){
	"seed-cold": runSeedCold,
	"gen-edit":  runGenEdit,
	"serve-mix": runServeMix,
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := env{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), StageRoot: stageRoot + " (relative to the working directory)",
	}
	rep.detail["env"] = e
	if len(rep.errs) > 0 {
		rep.detail["errors"] = rep.errs
	}
	rep.note("failed_ratio", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.detail["ungated"] = rep.ungated
	detail, err := json.Marshal(rep.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", detail, line)
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.String("seed", "1", "workload seed (unsigned integer)")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{workload: *workload, seconds: *seconds, trace: *trace == 1}
	if _, ok := workloads[cfg.workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	s, err := strconv.ParseUint(*seed, 10, 64)
	if err != nil {
		return config{}, fmt.Errorf("bad --seed: %w", err)
	}
	cfg.seed = s
	if cfg.seconds < 1 {
		return config{}, errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("--trace must be 0 or 1")
	}
	return cfg, nil
}

func workloadNames() []string { return []string{"seed-cold", "gen-edit", "serve-mix"} }

// hostTimes reads the host's cumulative CPU time from /proc/stat, in
// clock ticks: the total over every state, and the share the
// hypervisor stole (time a vCPU was runnable but not running).
func hostTimes() (total, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// processCPU returns the CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostLoad marks the start of a measured interval, for the host's
// steal share over it: the detail line reports it so that a slow run
// can be told apart from a busy host.
type hostLoad struct{ total, steal int64 }

func startHostLoad() hostLoad {
	total, steal, _ := hostTimes()
	return hostLoad{total: total, steal: steal}
}

// stealPct returns the percentage of host CPU time stolen since start.
func (h hostLoad) stealPct() float64 {
	total, steal, err := hostTimes()
	if err != nil || total <= h.total {
		return 0
	}
	return 100 * float64(steal-h.steal) / float64(total-h.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
