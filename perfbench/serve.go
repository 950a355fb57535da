package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/evaluation"
	"wasabi/internal/obs"
	"wasabi/internal/server"
)

// The serve-mix offered rates, in jobs per second, and the latency
// limit max_rate_jobs_per_s tests the job tail against. On the 2-vCPU
// reference host the in-process server saturates between about 35 and
// 65 jobs/s for this job mix, depending on how much CPU the hypervisor
// steals at the time. rate_mid, where the per-op metrics are taken, is
// below the knee at either end of that range, so its latency stays
// within the limit; rate_hi is past the knee at either end, so it
// misses the limit by a clear margin rather than by chance. The rates
// are fixed: changing them changes what every later run measures.
const (
	rateLo         = 10.0
	rateMid        = 20.0
	rateHi         = 120.0
	latencyLimitMS = 500.0
)

// pollInterval is how long the poller sleeps between sweeps over the
// outstanding jobs. It bounds the timing resolution: a job is observed
// done up to one interval plus one sweep after it finished.
const pollInterval = 5 * time.Millisecond

const (
	tenants   = 4 // tenant labels t0..t3
	editEvery = 5 // every editEvery-th job is preceded by an edit
	// drainTimeout bounds the wait for a phase's jobs after its last
	// arrival; a job still outstanding then counts as failed.
	drainTimeout = 60 * time.Second
)

// phase is one fixed offered rate and its share of the measured time.
type phase struct {
	name  string
	rate  float64
	share float64
}

var phases = []phase{
	{"rate_lo", rateLo, 0.25},
	{"rate_mid", rateMid, 0.5},
	{"rate_hi", rateHi, 0.25},
}

// jobSpec is one scheduled submission.
type jobSpec struct {
	due    time.Duration // offset from the phase start
	tenant string
	set    int // index into the menu
	edit   edit
}

// appSet is one menu entry: the apps a job names and its reference.
type appSet struct {
	apps  []corpus.App
	codes []string
	ref   reference
	// compact is the reference report in compact JSON form: the server
	// re-indents the report inside its job view, so served and reference
	// documents are compared after compaction.
	compact []byte
}

// serveState is a set-up serve-mix workload.
type serveState struct {
	in   *staged
	menu []appSet
	// setsByApp lists, per app code, the menu sets naming it.
	setsByApp map[string][]int
	obs       *obs.Observer
	srv       *server.Server
	base      string
	slots     int
}

func (s *serveState) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // a drain that times out still closes the listener
	s.srv = nil
}

// fixedMenu is the serve-mix job mix: every app alone, in two pairs and
// in three triples (24 sets, 2 apps per job on average, each app in the
// same number of sets), apps in corpus order. It does not follow
// --seed: jobs walk it in seeded order, a full pass per 24 jobs, so the
// mix of work is the same for every seed and only its order varies.
func fixedMenu(apps []corpus.App) [][]corpus.App {
	n := len(apps)
	var menu [][]corpus.App
	for _, offsets := range [][]int{{0}, {0, 1}, {0, 1, 3}} {
		for i := 0; i < n; i++ {
			var idx []int
			for _, o := range offsets {
				idx = append(idx, (i+o)%n)
			}
			sort.Ints(idx)
			set := make([]corpus.App, len(idx))
			for k, j := range idx {
				set[k] = apps[j]
			}
			menu = append(menu, set)
		}
	}
	return menu
}

// setupServe stages the seed corpus, makes one reference per menu set,
// starts the server with the shipped defaults and warms it with one
// checked job per menu set.
func setupServe(seed uint64, prev *serveState) (*serveState, error) {
	if prev != nil {
		prev.close()
	}
	stageRNG := rand.New(rand.NewPCG(seed, streamStage))
	in, err := stageSeedCorpus("serve-mix", stageRNG)
	if err != nil {
		return nil, fmt.Errorf("stage: %w", err)
	}
	st := &serveState{in: in, setsByApp: map[string][]int{}}
	for _, set := range fixedMenu(in.Apps) {
		ref, err := makeReference(set)
		if err != nil {
			return nil, err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, ref.report); err != nil {
			return nil, err
		}
		as := appSet{apps: set, ref: ref, compact: compact.Bytes()}
		for _, a := range set {
			as.codes = append(as.codes, a.Code)
			st.setsByApp[a.Code] = append(st.setsByApp[a.Code], len(st.menu))
		}
		st.menu = append(st.menu, as)
	}
	// The daemon's configuration: cmd/wasabid always builds an observer
	// and an in-memory cache; queue depth, slots and quotas stay at the
	// server's defaults.
	st.obs = obs.New()
	ca, err := cache.New(cache.Options{Metrics: st.obs.Reg()})
	if err != nil {
		return nil, err
	}
	st.srv = server.New(server.Config{Addr: "127.0.0.1:0", Cache: ca, Obs: st.obs, Corpus: in.Apps})
	if err := st.srv.Start(); err != nil {
		return nil, err
	}
	st.base = "http://" + st.srv.Addr()
	st.slots = int(st.obs.Reg().Snapshot().Gauge("server_sched_slots"))
	c := newClient()
	for i := range st.menu {
		j := &liveJob{spec: jobSpec{tenant: "t0", set: i}}
		if err := c.submit(st, j); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for j.doneAt.IsZero() {
			if err := c.poll(st, j); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			time.Sleep(pollInterval)
		}
		if j.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", j.err)
		}
	}
	return st, nil
}

// schedule draws a phase's arrivals: rate*d jobs at uniformly
// random instants over d (a Poisson process conditioned on its expected
// count, so every seed offers the same load). Plain jobs take the menu
// in passes of seeded order. Every editEvery-th job is preceded by an
// edit: the files are edited in one seeded pass over all staged files,
// and the job names a menu set holding the edited file's app, each
// app's sets in turn. The token cost of reviewing a file varies widely
// (a file with several retry findings costs many times one without),
// so covering every file once keeps the fresh-token cost per job the
// same for every seed.
func schedule(st *serveState, p phase, d time.Duration, rng *rand.Rand) []jobSpec {
	n := int(math.Round(p.rate * d.Seconds()))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * d.Seconds()
	}
	sort.Float64s(due)
	var plain, files []int
	turn := map[string]int{} // app code → edited jobs naming it so far
	jobs := make([]jobSpec, n)
	for i := range jobs {
		j := jobSpec{
			due:    time.Duration(due[i] * float64(time.Second)),
			tenant: fmt.Sprintf("t%d", rng.IntN(tenants)),
		}
		if i%editEvery == editEvery-1 {
			if len(files) == 0 {
				files = rng.Perm(len(st.in.Files))
			}
			f := st.in.Files[files[0]]
			files = files[1:]
			sets := st.setsByApp[f.App]
			j.set = sets[turn[f.App]%len(sets)]
			turn[f.App]++
			j.edit = edit{file: f, value: rng.Uint64()}
		} else {
			if len(plain) == 0 {
				plain = rng.Perm(len(st.menu))
			}
			j.set = plain[0]
			plain = plain[1:]
		}
		jobs[i] = j
	}
	return jobs
}

// liveJob is one submission's observed life.
type liveJob struct {
	spec    jobSpec
	op      int // 1-based position in the phase, the span op id
	dueAt   time.Time
	sentAt  time.Time
	id      string
	refused bool
	doneAt  time.Time
	polls   int
	fresh   int64
	err     error
	// submitMS is the POST round trip.
	submitMS float64
}

// client is one HTTP client holding at most one connection, so the
// generator's sender and poller together use two.
type client struct{ http *http.Client }

func newClient() *client {
	return &client{http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit POSTs the job. A 429 marks it refused; it is not resubmitted.
func (c *client) submit(st *serveState, j *liveJob) error {
	body, err := json.Marshal(map[string]any{"tenant": j.spec.tenant, "apps": st.menu[j.spec.set].codes})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := c.http.Post(st.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	j.submitMS = ms(time.Since(start))
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		j.id = v.ID
		return nil
	case http.StatusTooManyRequests:
		j.refused = true
		return nil
	}
	return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// poll GETs the job once; on completion it stamps doneAt and checks the
// served report against the set's reference.
func (c *client) poll(st *serveState, j *liveJob) error {
	j.polls++
	resp, err := c.http.Get(st.base + "/v1/jobs/" + j.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("poll %s: HTTP %d", j.id, resp.StatusCode)
	}
	var v struct {
		State    string `json:"state"`
		Error    string `json:"error"`
		FreshLLM struct {
			TokensIn int64 `json:"tokens_in"`
		} `json:"fresh_llm"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch v.State {
	case "done":
		j.doneAt = time.Now()
		j.fresh = v.FreshLLM.TokensIn
		var got bytes.Buffer
		if err := json.Compact(&got, v.Report); err != nil {
			j.err = err
		} else if !bytes.Equal(got.Bytes(), st.menu[j.spec.set].compact) {
			j.err = fmt.Errorf("job %s (%v): report differs from the set-up reference", j.id, st.menu[j.spec.set].codes)
		}
	case "failed":
		j.doneAt = time.Now()
		j.err = fmt.Errorf("job %s failed: %s", j.id, v.Error)
	}
	return nil
}

// phaseRun is one phase's observed jobs.
type phaseRun struct {
	phase phase
	start time.Time
	jobs  []*liveJob
}

// runPhase drives one phase: a sender goroutine submits each job at its
// due time (after its edit, if any) and hands accepted jobs to a poller
// goroutine, which sweeps the outstanding jobs every pollInterval until
// the sender is done and nothing is outstanding. Two goroutines, two
// connections.
func runPhase(st *serveState, p phase, specs []jobSpec, rec *recorder) *phaseRun {
	pr := &phaseRun{phase: p, start: time.Now()}
	var (
		mu          sync.Mutex
		outstanding []*liveJob
		senderDone  bool
		wg          sync.WaitGroup
	)
	for i, s := range specs {
		pr.jobs = append(pr.jobs, &liveJob{spec: s, op: i + 1, dueAt: pr.start.Add(s.due)})
	}
	wg.Add(2)
	go func() { // sender
		defer wg.Done()
		c := newClient()
		defer c.close()
		for _, j := range pr.jobs {
			if d := time.Until(j.dueAt); d > 0 {
				time.Sleep(d)
			}
			j.sentAt = time.Now()
			if err := j.spec.edit.apply(); err != nil {
				j.err = err
				continue
			}
			s := rec.start(j.op, 0, "http.submit")
			err := c.submit(st, j)
			s.end()
			if err != nil {
				j.err = err
				continue
			}
			if j.id != "" {
				mu.Lock()
				outstanding = append(outstanding, j)
				mu.Unlock()
			}
		}
		mu.Lock()
		senderDone = true
		mu.Unlock()
	}()
	go func() { // poller
		defer wg.Done()
		c := newClient()
		defer c.close()
		var deadline time.Time
		for {
			mu.Lock()
			sweep := append([]*liveJob(nil), outstanding...)
			done := senderDone
			mu.Unlock()
			if done && len(sweep) == 0 {
				return
			}
			if done && deadline.IsZero() {
				deadline = time.Now().Add(drainTimeout)
			}
			if done && time.Now().After(deadline) {
				for _, j := range sweep {
					j.err = fmt.Errorf("job %s still outstanding %v after the last arrival", j.id, drainTimeout)
				}
				return
			}
			finished := map[*liveJob]bool{}
			for _, j := range sweep {
				s := rec.start(j.op, 0, "http.poll")
				err := c.poll(st, j)
				s.end()
				if err != nil {
					j.err = err
					finished[j] = true
				} else if !j.doneAt.IsZero() {
					finished[j] = true
				}
			}
			if len(finished) > 0 {
				mu.Lock()
				keep := outstanding[:0]
				for _, j := range outstanding {
					if !finished[j] {
						keep = append(keep, j)
					}
				}
				outstanding = keep
				mu.Unlock()
			}
			time.Sleep(pollInterval)
		}
	}()
	wg.Wait()
	return pr
}

// phaseStats summarizes a phase.
type phaseStats struct {
	Rate         float64 `json:"offered_jobs_per_s"`
	Jobs         int     `json:"jobs"`
	Refused      int     `json:"refused"`
	Failed       int     `json:"failed"`
	Latency      summary `json:"job_ms"`
	BacklogStart float64 `json:"backlog_start"`
	BacklogEnd   float64 `json:"backlog_end"`
	LagP99       float64 `json:"lag_ms_p99"`
	LagMax       float64 `json:"lag_ms_max"`
	AppsPerS     float64 `json:"apps_per_s"`
	MeetsLimit   bool    `json:"meets_limit"`
	latencies    []float64
}

// outstandingMean is the mean number of jobs outstanding (sent, accepted
// and not yet seen done) over [from, to): the time integral of the
// backlog divided by the window length. Averaging over a window keeps
// one instant's queue from deciding whether the backlog grew.
func outstandingMean(jobs []*liveJob, from, to time.Time) float64 {
	var total time.Duration
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		lo, hi := j.sentAt, j.doneAt
		if hi.IsZero() || hi.After(to) {
			hi = to
		}
		if lo.Before(from) {
			lo = from
		}
		if hi.After(lo) {
			total += hi.Sub(lo)
		}
	}
	return float64(total) / float64(to.Sub(from))
}

// backlogWindow is the share of a phase, at its start and at its end,
// over which the backlog is averaged.
const backlogWindow = 0.1

func (pr *phaseRun) stats(st *serveState, d time.Duration) phaseStats {
	ps := phaseStats{Rate: pr.phase.rate, Jobs: len(pr.jobs)}
	end := pr.start.Add(d)
	var due, sent []float64
	apps := 0
	var last time.Time
	for _, j := range pr.jobs {
		due = append(due, ms(j.dueAt.Sub(pr.start)))
		sent = append(sent, ms(j.sentAt.Sub(pr.start)))
		switch {
		case j.refused:
			ps.Refused++
		case j.err != nil:
			ps.Failed++
		default:
			ps.latencies = append(ps.latencies, ms(j.doneAt.Sub(j.dueAt)))
			apps += len(st.menu[j.spec.set].codes)
			if j.doneAt.After(last) {
				last = j.doneAt
			}
		}
	}
	ps.Latency = summarize(ps.latencies)
	w := time.Duration(backlogWindow * float64(d))
	ps.BacklogStart = outstandingMean(pr.jobs, pr.start, pr.start.Add(w))
	ps.BacklogEnd = outstandingMean(pr.jobs, end.Add(-w), end)
	lag := lateness(due, sent)
	if len(lag) > 0 {
		ps.LagP99 = quantile(lag, 99)
		ps.LagMax = quantile(lag, 100)
	}
	if !last.IsZero() {
		ps.AppsPerS = float64(apps) / last.Sub(pr.start).Seconds()
	}
	ps.MeetsLimit = ps.Refused == 0 && ps.Failed == 0 && len(ps.latencies) > 0 &&
		ps.Latency.Tail <= latencyLimitMS && !backlogGrew(ps.BacklogStart, ps.BacklogEnd, st.slots)
	return ps
}

// maxRate returns the highest offered rate whose phase met the limit,
// or 0 when none did.
func maxRate(stats []phaseStats) float64 {
	best := 0.0
	for _, ps := range stats {
		if ps.MeetsLimit {
			best = math.Max(best, ps.Rate)
		}
	}
	return best
}

func runServeMix(cfg config) (*measurement, error) {
	var prev *serveState
	st, setup, err := repeatSetup(func() (*serveState, error) {
		s, err := setupServe(cfg.seed, prev)
		prev = s
		return s, err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rng := rand.New(rand.NewPCG(cfg.seed, streamOps))
	total := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return traceServe(cfg, st, rng, total)
	}
	m := newMeasurement()
	var stats []phaseStats
	var midRun *phaseRun
	var midCPU time.Duration
	runtime.GC()
	load := startHostLoad()
	for _, p := range phases {
		d := time.Duration(p.share * float64(total))
		specs := schedule(st, p, d, rng)
		c0 := processCPU()
		pr := runPhase(st, p, specs, nil)
		if p.name == "rate_mid" {
			midRun, midCPU = pr, processCPU()-c0
		}
		stats = append(stats, pr.stats(st, d))
		for _, j := range pr.jobs {
			m.attempted++
			if j.err != nil {
				m.fail(j.err)
			}
		}
	}
	// The per-op metrics are taken at rate_mid, the operating point.
	var fresh int64
	var score evaluation.Score
	done := 0
	for _, j := range midRun.jobs {
		if j.err == nil && !j.doneAt.IsZero() {
			fresh += j.fresh
			score.Add(st.menu[j.spec.set].ref.score)
			done++
		}
	}
	if done == 0 {
		return nil, fmt.Errorf("serve-mix: no job completed at rate_mid")
	}
	jobs := float64(done)
	if err := setShared(m, setup, ms(midCPU)/jobs, load); err != nil {
		return nil, err
	}
	m.set("max_rate_jobs_per_s", "jobs/s", maxRate(stats))
	m.set("llm_tokens_per_op", "tokens", float64(fresh)/jobs)
	m.set("true_bugs", "count", float64(score.True)/jobs)
	m.set("false_reports", "count", float64(score.FP)/jobs)
	refused := 0
	for _, ps := range stats {
		refused += ps.Refused
	}
	mid := stats[1]
	m.note("op_ms.p50", "ms", mid.Latency.P50)
	m.note("op_ms.tail", "ms", mid.Latency.Tail)
	m.note("apps_per_s", "apps/s", stats[len(stats)-1].AppsPerS)
	m.note("refused_ratio", "ratio", float64(refused)/float64(max(m.attempted, 1)))
	m.detail["op_ms"] = mid.Latency
	m.detail["phases"] = stats
	m.detail["latency_limit_ms"] = latencyLimitMS
	m.detail["poll_interval_ms"] = ms(pollInterval)
	m.detail["slots"] = st.slots
	m.detail["loop"] = fmt.Sprintf("open, Poisson arrivals, %d tenants, 1 sender + 1 poller goroutine, 2 connections", tenants)
	return m, nil
}
