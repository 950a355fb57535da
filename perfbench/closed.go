package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Independent random streams derived from --seed, so that adding draws
// to one (say, more warm-up edits) leaves the others unchanged.
const (
	streamStage = iota + 1 // initial marker values
	streamWarm             // warm-up edits
	streamOps              // measured ops: edits, arrivals, job order
)

// setups is how many times a run performs its set-up; setup_s is the
// median, and the state of the last one is measured.
const setups = 3

// warmOps is how many ops set-up runs (and checks) before measuring.
const warmOps = 2

// closedSpec describes a closed-loop workload: one client issuing its
// next op as soon as the previous one completes.
type closedSpec struct {
	name string
	// daemon selects the daemon's steady state (one long-lived store and
	// one disk-backed cache across ops, and each op first edits one
	// seeded file) over the one-shot CLI (a fresh store and no cache per
	// op, inputs unchanged).
	daemon bool
	stage  func(rng *rand.Rand) (*staged, error)
}

var (
	seedCold = closedSpec{name: "seed-cold", stage: func(rng *rand.Rand) (*staged, error) {
		return stageSeedCorpus("seed-cold", rng)
	}}
	genEdit = closedSpec{name: "gen-edit", daemon: true, stage: func(rng *rand.Rand) (*staged, error) {
		return stageGenCorpus("gen-edit", rng)
	}}
)

func runSeedCold(cfg config) (*measurement, error) { return runClosed(cfg, seedCold) }
func runGenEdit(cfg config) (*measurement, error)  { return runClosed(cfg, genEdit) }

// closedState is a set-up closed-loop workload.
type closedState struct {
	spec closedSpec
	in   *staged
	ref  reference
	sys  *system
}

// edit is one op's input change; the zero value changes nothing.
type edit struct {
	file  stagedFile
	value uint64
}

// draw picks the next op's edit.
func (st *closedState) draw(rng *rand.Rand) edit {
	if !st.spec.daemon {
		return edit{}
	}
	return edit{file: st.in.Files[rng.IntN(len(st.in.Files))], value: rng.Uint64()}
}

// apply performs the edit.
func (e edit) apply() error {
	if e.file.Path == "" {
		return nil
	}
	return restamp(e.file.Path, e.value)
}

// op runs one timed op on sys: apply the edit, then analyse the corpus
// and render the report.
func (st *closedState) op(sys *system, e edit) (outcome, time.Duration, error) {
	start := time.Now()
	if err := e.apply(); err != nil {
		return outcome{}, 0, err
	}
	out, err := sys.analyze(st.in.Apps, 0)
	return out, time.Since(start), err
}

// cacheDir is where a persistent system named name keeps its disk tier.
func (st *closedState) cacheDir(name string) string {
	return filepath.Join(stageRoot, st.spec.name+"-"+name+"-cache")
}

// newWarmSystem builds a system in the workload's configuration and, for
// the persistent one, populates it with one checked cold run.
func (st *closedState) newWarmSystem(name string) (*system, error) {
	dir := ""
	if st.spec.daemon {
		dir = st.cacheDir(name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	sys, err := newSystem(st.spec.daemon, dir)
	if err != nil {
		return nil, err
	}
	if st.spec.daemon {
		out, err := sys.analyze(st.in.Apps, 0)
		if err != nil {
			return nil, err
		}
		if err := st.ref.check(out, st.in.Apps); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return sys, nil
}

// setupClosed stages the inputs, makes the reference and warms the
// system: the set-up whose time setup_s reports.
func setupClosed(spec closedSpec, seed uint64) (*closedState, error) {
	in, err := spec.stage(rand.New(rand.NewPCG(seed, streamStage)))
	if err != nil {
		return nil, fmt.Errorf("stage: %w", err)
	}
	ref, err := makeReference(in.Apps)
	if err != nil {
		return nil, err
	}
	st := &closedState{spec: spec, in: in, ref: ref}
	if st.sys, err = st.newWarmSystem("op"); err != nil {
		return nil, err
	}
	warm := rand.New(rand.NewPCG(seed, streamWarm))
	for i := 0; i < warmOps; i++ {
		out, _, err := st.op(st.sys, st.draw(warm))
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := st.ref.check(out, in.Apps); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// setupTimes are the set-up samples of one run, in seconds.
type setupTimes struct {
	CPU  []float64 `json:"cpu_s"`
	Wall []float64 `json:"wall_s"`
}

// repeatSetup runs set-up `setups` times, keeping the last state, and
// returns each set-up's CPU and wall time.
func repeatSetup[T any](setup func() (T, error)) (T, setupTimes, error) {
	var st T
	var times setupTimes
	for i := 0; i < setups; i++ {
		runtime.GC()
		start, cpu := time.Now(), processCPU()
		var err error
		if st, err = setup(); err != nil {
			return st, times, err
		}
		times.CPU = append(times.CPU, (processCPU() - cpu).Seconds())
		times.Wall = append(times.Wall, time.Since(start).Seconds())
	}
	return st, times, nil
}

// setShared records the end-to-end metrics every workload defines the
// same way, and the detail that goes with them.
func setShared(m *measurement, setup setupTimes, cpuPerOp float64, load hostLoad) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("setup_s", "s", median(setup.CPU))
	m.set("cpu_ms_per_op", "ms", cpuPerOp)
	m.set("peak_rss_mb", "MB", rss)
	m.detail["setup_s"] = setup
	m.detail["host_steal_pct"] = load.stealPct()
	return nil
}

// runClosed measures a closed-loop workload for cfg.seconds.
func runClosed(cfg config, spec closedSpec) (*measurement, error) {
	st, setup, err := repeatSetup(func() (*closedState, error) { return setupClosed(spec, cfg.seed) })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, streamOps))
	if cfg.trace {
		return traceClosed(cfg, st, rng)
	}
	m := newMeasurement()
	var wall []float64
	var busy, cpu time.Duration
	var tokens int64
	runtime.GC()
	load := startHostLoad()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for time.Now().Before(deadline) {
		m.attempted++
		c0 := processCPU()
		out, d, err := st.op(st.sys, st.draw(rng))
		cpu += processCPU() - c0
		if err != nil {
			m.fail(err)
			continue
		}
		wall = append(wall, ms(d))
		busy += d
		tokens += out.fresh
		if err := st.ref.check(out, st.in.Apps); err != nil {
			m.fail(err)
		}
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("%s: no op completed in %d s", spec.name, cfg.seconds)
	}
	ops := float64(len(wall))
	cpuPerOp := ms(cpu) / ops
	if err := setShared(m, setup, cpuPerOp, load); err != nil {
		return nil, err
	}
	// A closed loop never builds a backlog; its capacity is bounded by
	// the CPU one op costs, spread over every CPU the process may use.
	m.set("max_rate_jobs_per_s", "jobs/s", float64(runtime.GOMAXPROCS(0))*1000/cpuPerOp)
	m.set("llm_tokens_per_op", "tokens", float64(tokens)/ops)
	m.set("true_bugs", "count", float64(st.ref.score.True))
	m.set("false_reports", "count", float64(st.ref.score.FP))
	op := summarize(wall)
	m.note("op_ms.p50", "ms", op.P50)
	m.note("op_ms.tail", "ms", op.Tail)
	m.note("apps_per_s", "apps/s", ops*float64(len(st.in.Apps))/busy.Seconds())
	m.detail["op_ms"] = op
	m.detail["apps"] = len(st.in.Apps)
	m.detail["files"] = len(st.in.Files)
	m.detail["loop"] = "closed, 1 client"
	return m, nil
}
