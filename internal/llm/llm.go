// Package llm is the reproduction's stand-in for GPT-4: a deterministic
// model of the large language model's *measured* behaviour in the WASABI
// paper, used for fuzzy retry identification (§3.1.1 technique 2) and
// static WHEN-bug detection (§3.2.1).
//
// The environment is offline, so instead of calling an LLM API, the client
// reproduces the capability envelope the paper reports for GPT-4:
//
//   - it identifies retry from NON-structural evidence — names, comments,
//     string literals — and therefore finds queue- and state-machine-based
//     retry that control-flow analysis cannot (§4.2, Figure 4);
//   - it answers the paper's prompt chain Q1 (does the file retry?), Q2
//     (sleep before retry?), Q3 (cap on retries?), Q4 (poll/spin-lock?);
//   - it FAILS on large files: beyond a context threshold it does not even
//     realize retry exists (the paper's 100 missed loops in 53 large
//     files, mean ~10.5 KB);
//   - it produces the paper's false-positive modes at seeded-deterministic
//     rates: labeling poll/status-update code as retry when Q4 misfires,
//     missing sleeps that live in helpers outside the file (single-file
//     context), and occasionally misreading an explicit cap;
//   - it accounts API calls, tokens, and dollar cost (§4.3 "Cost of
//     GPT-4").
//
// Every decision is a pure function of (seed, file path, function name),
// so runs are reproducible.
package llm

import (
	"fmt"
	"go/ast"
	"hash/fnv"
	"log/slog"
	"strings"
	"sync"
	"time"

	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// Config tunes the simulated model.
type Config struct {
	// LargeFileThreshold is the context limit in bytes: files larger than
	// this defeat the model's retry comprehension entirely.
	LargeFileThreshold int
	// Seed perturbs all stochastic-looking decisions deterministically.
	Seed uint64
	// PricePerMTokens is the dollar price per million input tokens used
	// for cost accounting.
	PricePerMTokens float64

	// Noise denominators: a hash bucket of 1-in-N triggers the failure
	// mode. Zero disables the mode.
	HallucinateRetryDenom int // borderline function labeled retry (Q1 FP)
	Q4MissDenom           int // poll/spin exclusion fails
	CapMisreadDenom       int // explicit cap not comprehended (Q3 FP)
	DelayMisreadDenom     int // in-file sleep not comprehended (Q2 FP)

	// Fault, when non-nil, models an unreliable backend: reviews go
	// through a FaultyTransport behind the resilience stack configured by
	// Resilience (see transport.go and resilient.go). Nil keeps the
	// perfect, fault-free backend. A non-nil zero-valued profile enables
	// the machinery without injecting anything — output must then be
	// byte-identical to the nil case.
	Fault *FaultProfile
	// Resilience tunes the retry policy, shared retry budget and circuit
	// breaker used when Fault is set; zero fields take the
	// DefaultResilienceConfig values.
	Resilience ResilienceConfig

	// Backends, when non-empty, routes reviews across an ordered
	// multi-backend topology (backends.go): per-backend circuit breakers,
	// health-gated failover, and optional hedging. Mutually exclusive
	// with Fault — a topology models per-backend fault profiles on its
	// own specs. Empty keeps the single-backend behaviour byte-identical.
	Backends []BackendSpec
	// HedgeAfter, when > 0 and more than one backend is healthy, launches
	// a hedged attempt on the next backend after this much wall time
	// without an answer. Hedges draw from the shared retry budget.
	HedgeAfter time.Duration
	// Multi, when non-nil, is a pre-built shared transport (e.g. one per
	// daemon process, so backend health and the shared budget span jobs).
	// Callers setting Multi should set Backends to the same topology so
	// Fingerprint stays truthful.
	Multi *MultiTransport
	// Flight, when non-nil, coalesces identical in-flight reviews across
	// every client sharing it (singleflight).
	Flight *Flight
	// Log receives structured failover/hedge/breaker decision events;
	// nil discards them.
	Log *slog.Logger
}

// MultiBackend reports whether reviews route through the multi-backend
// layer (which trades canonical-order admission for availability, so
// e.g. the review cache must stay off).
func (c Config) MultiBackend() bool {
	return c.Multi != nil || len(c.Backends) > 0
}

// PromptVersion identifies the revision of the Q1–Q4 prompt chain baked
// into Review. It is part of every review-cache key (internal/cache), so
// bumping it invalidates memoized reviews wholesale: change it whenever
// Review's question logic or failure modes change in a way that can alter
// output for unchanged input.
const PromptVersion = "q1q4/v1"

// Fingerprint renders every configuration fact that can influence a
// review's outcome as a stable string — the "prompt/config version"
// component of review-cache keys. Two clients with equal fingerprints
// produce identical FileReviews for identical (path, contents) inputs,
// provided no fault profile is active (fault-profile runs are admitted in
// run-global order and are not cacheable per file; the profile is still
// folded in defensively).
func (c Config) Fingerprint() string {
	fp := fmt.Sprintf("%s|thr=%d|seed=%d|price=%g|q1=%d|q4=%d|q3=%d|q2=%d",
		PromptVersion, c.LargeFileThreshold, c.Seed, c.PricePerMTokens,
		c.HallucinateRetryDenom, c.Q4MissDenom, c.CapMisreadDenom, c.DelayMisreadDenom)
	if c.Fault != nil {
		fp += "|fault=" + c.Fault.String()
	}
	if len(c.Backends) > 0 {
		fp += "|backends=" + backendsString(c.Backends)
		if c.HedgeAfter > 0 {
			fp += "|hedge=" + c.HedgeAfter.String()
		}
	}
	return fp
}

// DefaultConfig mirrors the paper's measured behaviour.
func DefaultConfig() Config {
	return Config{
		LargeFileThreshold:    7500,
		Seed:                  2024,
		PricePerMTokens:       2.50,
		HallucinateRetryDenom: 4,
		Q4MissDenom:           5,
		CapMisreadDenom:       11,
		DelayMisreadDenom:     13,
	}
}

// Client is a simulated GPT-4 endpoint with usage accounting.
type Client struct {
	cfg Config
	// reg, when set, receives the per-review observability counters and
	// latency/token histograms (see docs/OBSERVABILITY.md).
	reg *obs.Registry
	// chaos is the resilience stack (resilient.go); nil without a fault
	// profile, in which case reviews hit the model directly.
	chaos *chaosState
	// multi is the multi-backend routing state (backends.go); nil unless
	// Config.Backends or Config.Multi is set. multi and chaos are
	// mutually exclusive (multi wins).
	multi *multiState

	mu       sync.Mutex
	calls    int
	tokensIn int64
}

// NewClient returns a client with the given configuration.
func NewClient(cfg Config) *Client {
	if cfg.LargeFileThreshold == 0 {
		cfg.LargeFileThreshold = DefaultConfig().LargeFileThreshold
	}
	if cfg.PricePerMTokens == 0 {
		cfg.PricePerMTokens = DefaultConfig().PricePerMTokens
	}
	c := &Client{cfg: cfg}
	switch {
	case cfg.MultiBackend():
		c.multi = c.newMultiState()
	case cfg.Fault != nil:
		c.chaos = c.newChaosState(*cfg.Fault)
	}
	return c
}

// Fingerprint returns the client's effective configuration fingerprint
// (defaults applied), the form review-cache keys must use.
func (c *Client) Fingerprint() string { return c.cfg.Fingerprint() }

// Instrument attaches a metrics registry (nil is fine) and returns the
// client for chaining.
func (c *Client) Instrument(reg *obs.Registry) *Client {
	c.reg = reg
	if c.chaos != nil {
		c.chaos.instrument(c)
	}
	if c.multi != nil {
		// First registry wins on a shared transport; per-job clients in
		// the daemon all pass the same one.
		c.multi.mt.Instrument(reg)
	}
	return c
}

// fileTokenBuckets sizes the per-file token-spend histogram: reviews
// cost between a few hundred and a few ten-thousand tokens.
var fileTokenBuckets = []float64{256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// Usage summarizes the API traffic so far.
type Usage struct {
	Calls    int
	TokensIn int64
	CostUSD  float64
}

// Add accumulates another tally (cost is linear in tokens, so it sums).
func (u *Usage) Add(o Usage) {
	u.Calls += o.Calls
	u.TokensIn += o.TokensIn
	u.CostUSD += o.CostUSD
}

// Usage returns accumulated usage.
func (c *Client) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Usage{
		Calls:    c.calls,
		TokensIn: c.tokensIn,
		CostUSD:  float64(c.tokensIn) / 1e6 * c.cfg.PricePerMTokens,
	}
}

// ResetUsage zeroes the accounting counters.
func (c *Client) ResetUsage() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls, c.tokensIn = 0, 0
}

// Finding is one coordinator method the model believes implements retry.
type Finding struct {
	// Coordinator is the normalized method name "pkg.Type.method".
	Coordinator string
	// File is the source file basename.
	File string
	// Mechanism is the model's classification: "loop", "queue", or
	// "statemachine".
	Mechanism string
	// SleepsBeforeRetry is the Q2 answer.
	SleepsBeforeRetry bool
	// HasCap is the Q3 answer.
	HasCap bool
	// PollOrSpin is the Q4 answer; true findings are excluded from
	// retry identification and bug reports.
	PollOrSpin bool
	// Hallucinated marks Q1 false positives (for introspection only;
	// callers must not branch on it).
	Hallucinated bool
}

// FileReview is the outcome of the Q1–Q4 prompt chain over one file.
type FileReview struct {
	File string
	Size int
	// PerformsRetry is the Q1 answer.
	PerformsRetry bool
	// TruncatedContext marks the large-file failure mode.
	TruncatedContext bool
	// Findings are the retained (non-poll) retry coordinators.
	Findings []Finding
	// Spent is the API usage attributable to reviewing this file. Unlike
	// Client.Usage, which accumulates across every review the client has
	// performed, Spent is a pure function of the file contents — it stays
	// identical no matter how reviews are scheduled across goroutines.
	// Degraded reviews resend nothing, so their Spent stays zero.
	Spent Usage
	// Degraded marks a review the resilient client could not complete
	// against an unreliable backend: no model answers exist for this
	// file, and the pipeline falls back to static-only analysis for it.
	Degraded bool
	// DegradedReason is one of the Degraded* constants (resilient.go)
	// when Degraded is set.
	DegradedReason string
	// Retries counts transport attempts beyond the first that this
	// review consumed (0 for a clean first try, and for degraded reviews
	// that never got a successful attempt the count of failed retries).
	// It is a scheduling fact, not a property of the file contents, so
	// it is excluded from JSON: cached review envelopes and reports must
	// stay byte-identical between cold and warm runs.
	Retries int `json:"-"`
	// Backend names the backend that answered a multi-backend review
	// ("" outside multi-backend mode). A routing fact, not a property of
	// the contents — excluded from JSON like Retries.
	Backend string `json:"-"`
	// Shared marks a review whose answer was coalesced from another
	// in-flight review (singleflight follower). Followers resend nothing,
	// so callers must not re-charge their Spent as fresh upstream spend.
	Shared bool `json:"-"`
}

// ReviewSnapshotAt runs the Q1–Q4 prompt chain over one file of a
// loaded snapshot. It is the only review entry point, so every review
// consumes the store's bytes and AST (the parse-once contract). lane is
// the app's position in the corpus and idx the file's position in the
// app's sorted file list: after StartRun the resilience stack settles
// admissions in (lane, idx) order, which keeps grant decisions — and
// therefore output — identical at every worker count. Pass lane -1
// outside a sequenced run; without a fault profile the slot is ignored.
// The review, including its Spent accounting, is a pure function of
// (config, path, contents); the client's cumulative Usage is the only
// shared state, and it is only ever added to.
func (c *Client) ReviewSnapshotAt(f *source.File, lane, idx int) FileReview {
	switch {
	case c.multi != nil:
		return c.reviewMulti(f)
	case c.chaos != nil:
		return c.reviewChaos(f, lane, idx)
	}
	return c.review(f)
}

// review is the Q1–Q4 prompt chain over f's bytes and snapshot AST. The
// parse only matters below the large-file threshold — the model answers
// Q1 from the raw context either way.
func (c *Client) review(f *source.File) FileReview {
	path, src := f.Path, f.Bytes
	base := basename(path)
	rev := FileReview{File: base, Size: len(src)}
	start := time.Now()
	defer func() {
		c.charge(rev.Spent)
		c.reg.Counter("llm_files_reviewed_total").Inc()
		c.reg.Counter("llm_api_calls_total").Add(int64(rev.Spent.Calls))
		c.reg.Counter("llm_tokens_in_total").Add(rev.Spent.TokensIn)
		if rev.TruncatedContext {
			c.reg.Counter("llm_truncated_files_total").Inc()
		}
		c.reg.Histogram("llm_file_tokens", fileTokenBuckets).Observe(float64(rev.Spent.TokensIn))
		c.reg.Histogram("llm_review_ms", obs.LatencyBuckets).Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}()

	// Q1 costs one call over the whole file.
	c.spend(&rev, len(src))

	if len(src) > c.cfg.LargeFileThreshold {
		// The model loses the thread in large inputs and answers Q1 "No"
		// — the dominant false-negative mode of §4.2.
		rev.TruncatedContext = true
		return rev
	}

	file, err := f.Syntax()
	if err != nil {
		// Unparseable input: the real model would still answer; ours
		// conservatively says no. Large files never reach the parse.
		c.reg.Counter("llm_parse_failures_total").Inc()
		return rev
	}
	pkg := file.Name.Name
	sleepFuncs := localSleepFunctions(file)

	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := pkg + "." + funcKey(fd)
		ev := gatherEvidence(fd, file.Comments, sleepFuncs)
		// Q1's clarifications: a file that merely *defines* retry policies
		// or passes retry parameters around is not performing retry — the
		// model demands a re-execution shape (loop on error, re-enqueue,
		// or state machine) on top of naming/comment evidence.
		isRetry := ev.score() >= 3 && ev.hasReexecutionShape()
		hallucinated := false
		if !isRetry && ev.score() >= 2 && c.bucket(path, name, "q1", c.cfg.HallucinateRetryDenom) {
			isRetry, hallucinated = true, true
		}
		if !isRetry {
			continue
		}
		// Follow-up prompts Q2–Q4 cost three more calls over the file.
		c.spend(&rev, 3*len(src))

		find := Finding{
			Coordinator:       name,
			File:              base,
			Mechanism:         ev.mechanism(),
			SleepsBeforeRetry: ev.sleeps,
			HasCap:            ev.capped,
			PollOrSpin:        ev.pollish,
			Hallucinated:      hallucinated,
		}
		// Q2/Q3 misreads.
		if find.HasCap && c.bucket(path, name, "q3", c.cfg.CapMisreadDenom) {
			find.HasCap = false
		}
		if find.SleepsBeforeRetry && c.bucket(path, name, "q2", c.cfg.DelayMisreadDenom) {
			find.SleepsBeforeRetry = false
		}
		// Q4: poll/spin exclusion, which occasionally misses.
		if find.PollOrSpin {
			if c.bucket(path, name, "q4", c.cfg.Q4MissDenom) {
				find.PollOrSpin = false // exclusion failed: FP retained
			} else {
				continue // correctly excluded
			}
		}
		rev.Findings = append(rev.Findings, find)
	}
	rev.PerformsRetry = len(rev.Findings) > 0
	return rev
}

// WhenReport is a static WHEN-bug report produced from a finding (§3.2.1).
type WhenReport struct {
	Coordinator string
	File        string
	// Kind is "missing-cap" or "missing-delay".
	Kind string
}

// DetectWhenBugs derives WHEN-bug reports from a review: every retained
// retry coordinator without a cap yields a missing-cap report, and without
// a pre-retry sleep a missing-delay report.
func DetectWhenBugs(rev FileReview) []WhenReport {
	var out []WhenReport
	for _, f := range rev.Findings {
		if !f.HasCap {
			out = append(out, WhenReport{Coordinator: f.Coordinator, File: f.File, Kind: "missing-cap"})
		}
		if !f.SleepsBeforeRetry {
			out = append(out, WhenReport{Coordinator: f.Coordinator, File: f.File, Kind: "missing-delay"})
		}
	}
	return out
}

// spend accounts one API call carrying n bytes of context against the
// review's attributable usage.
func (c *Client) spend(rev *FileReview, n int) {
	rev.Spent.Calls++
	rev.Spent.TokensIn += int64(n) / 4 // ~4 bytes per token
	rev.Spent.CostUSD = float64(rev.Spent.TokensIn) / 1e6 * c.cfg.PricePerMTokens
}

// charge folds a review's attributable usage into the cumulative counters.
func (c *Client) charge(u Usage) {
	c.mu.Lock()
	c.calls += u.Calls
	c.tokensIn += u.TokensIn
	c.mu.Unlock()
}

// bucket returns true for a deterministic 1-in-denom fraction of
// (seed, path, fn, salt) tuples.
func (c *Client) bucket(path, fn, salt string, denom int) bool {
	if denom <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(fn))
	h.Write([]byte{0})
	h.Write([]byte(salt))
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(c.cfg.Seed >> (8 * i))
	}
	h.Write(seed[:])
	return h.Sum64()%uint64(denom) == 0
}

// basename returns the final path element.
func basename(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// funcKey renders "Type.method" for methods and "func" for functions.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
