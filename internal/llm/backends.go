// backends.go is the multi-backend routing layer: where transport.go
// models one unreliable endpoint, this file makes the client *highly
// available* across an ordered set of named backends — the availability
// techniques the paper's §1 resilience-framework discussion points at,
// applied to the pipeline's own hottest dependency. Three mechanisms
// compose:
//
//   - health-gated failover: each backend sits behind its own circuit
//     breaker (internal/resilience.Breaker); a backend whose breaker is
//     open is skipped, and after the cooldown exactly one half-open
//     probe is admitted to test recovery;
//   - hedged requests: when the preferred backend has not answered
//     within Config.HedgeAfter, a second attempt launches on the next
//     healthy backend — paying one token from the shared retry Budget,
//     so hedges and retries draw down the same bounded pool;
//   - singleflight: identical in-flight reviews (same config
//     fingerprint, path and content hash — the review-cache content
//     address) coalesce onto one upstream call whose answer is shared
//     by every waiter (Flight).
//
// The default single-simulator configuration never constructs any of
// this: with Config.Backends empty, reviews take exactly the PR 3 code
// path and chaos runs stay byte-identical. Multi-backend runs trade the
// canonical-order admission determinism of resilient.go for
// availability — *except* in the case that matters: review answers are
// computed locally (a pure function of config, path and contents), the
// transport only delivers or fails, so when the topology absorbs every
// fault (say, a hard primary outage with a healthy secondary) the
// output is byte-identical to a run against a healthy backend.
package llm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/obs"
	"wasabi/internal/resilience"
	"wasabi/internal/source"
	"wasabi/internal/trace"
)

// Structured log events emitted by the routing layer (catalog in
// docs/OBSERVABILITY.md). They fire on *decisions* — failing over,
// launching or suppressing a hedge, a breaker changing state — not on
// every call.
const (
	evBackendFailover = "llm.backend_failover"
	evBackendHedge    = "llm.backend_hedge"
	evBackendBreaker  = "llm.backend_breaker"
)

// ErrAllBreakersOpen is returned by MultiTransport when every backend's
// circuit breaker refuses the call — there is nowhere left to route.
// Reviews hitting it degrade with reason DegradedBreakerOpen.
var ErrAllBreakersOpen = errors.New("llm: every backend circuit breaker is open")

// BackendSpec describes one named backend in a multi-backend topology.
// Order matters: the first spec is the preferred backend, later ones
// are failover (and hedge) targets in sequence.
type BackendSpec struct {
	// Name identifies the backend in metrics labels, trace spans and
	// log events. Names must be unique within a topology and match
	// [A-Za-z0-9_-]+ (they become metric label values).
	Name string
	// Kind selects the adapter: "sim" (the in-process simulator,
	// optionally behind a FaultProfile) or "http" (the OpenAI-compatible
	// adapter in httpbackend.go).
	Kind string
	// URL is the http kind's base URL (e.g. "http://127.0.0.1:8081").
	URL string
	// Fault optionally wraps a sim backend in a FaultyTransport so a
	// topology can mix healthy and failing simulators (chaos drills).
	Fault *FaultProfile
	// Transport, when non-nil, overrides Kind entirely — a test seam
	// for injecting slow or counting transports.
	Transport Transport
}

// String renders the spec in ParseBackends' grammar (Transport
// overrides render by kind only; they are not round-trippable).
func (b BackendSpec) String() string {
	switch {
	case b.Kind == "http":
		return b.Name + "=http:" + b.URL
	case b.Fault != nil:
		return b.Name + "=sim:" + b.Fault.String()
	default:
		return b.Name + "=sim"
	}
}

// backendName validates metric-label-safe backend names.
var backendName = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// ParseBackends parses a backend-topology spec (the -llm-backends
// flag): entries separated by ";", each "name=sim", "name=sim:PROFILE"
// (PROFILE in ParseFaultProfile's grammar, commas and all) or
// "name=http:URL". Examples:
//
//	primary=sim
//	primary=sim:outage;secondary=sim
//	primary=http:http://127.0.0.1:8081;fallback=sim
//
// The entry separator is ";" because fault profiles already use ","
// internally.
func ParseBackends(spec string) ([]BackendSpec, error) {
	var out []BackendSpec
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("llm: backends %q: entry %q wants name=kind[:detail]", spec, entry)
		}
		if !backendName.MatchString(name) {
			return nil, fmt.Errorf("llm: backends %q: name %q must match %s", spec, name, backendName)
		}
		if seen[name] {
			return nil, fmt.Errorf("llm: backends %q: duplicate backend name %q", spec, name)
		}
		seen[name] = true
		kind, detail, _ := strings.Cut(strings.TrimSpace(rest), ":")
		b := BackendSpec{Name: name, Kind: strings.TrimSpace(kind)}
		switch b.Kind {
		case "sim":
			if detail != "" {
				p, err := ParseFaultProfile(detail)
				if err != nil {
					return nil, fmt.Errorf("llm: backends %q: backend %q: %w", spec, name, err)
				}
				b.Fault = &p
			}
		case "http":
			if detail == "" {
				return nil, fmt.Errorf("llm: backends %q: backend %q: http kind wants a URL", spec, name)
			}
			b.URL = detail
		default:
			return nil, fmt.Errorf("llm: backends %q: backend %q: unknown kind %q (want sim or http)", spec, name, b.Kind)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("llm: backends %q: no backends", spec)
	}
	return out, nil
}

// backendsString renders a topology in ParseBackends' grammar — the
// form Config.Fingerprint folds into review-cache keys.
func backendsString(specs []BackendSpec) string {
	parts := make([]string, len(specs))
	for i, b := range specs {
		parts[i] = b.String()
	}
	return strings.Join(parts, ";")
}

// backend is one routed backend: its adapter and its health state.
type backend struct {
	name    string
	t       Transport
	breaker *resilience.Breaker
}

// MultiTransport routes calls across an ordered backend set with
// per-backend circuit breakers, sequential failover, and optional
// hedging. It is goroutine-safe (unlike a bare Breaker: all breaker
// access is serialized under mu) and designed to be shared — cmd/wasabi
// builds one per run, wasabid builds one per process so backend health
// survives across jobs.
type MultiTransport struct {
	hedgeAfter time.Duration
	// budget is the shared retry/hedge token pool: the client's retry
	// loop and the hedge launcher draw from the same bucket, which is
	// what bounds total extra spend ("retries are a global resource").
	budget *resilience.Budget
	log    *slog.Logger

	mu       sync.Mutex
	backends []*backend
	reg      *obs.Registry
	start    time.Time
	// now is the breaker clock (virtual offsets since construction);
	// wall time by default, injectable for tests (SetClock).
	now func() time.Duration
	// ord hands out per-review arrival ordinals (outage-after windows
	// on sim backends key on them).
	ord atomic.Int64
}

// NewMultiTransport builds the router for cfg.Backends, with breakers
// and the shared budget sized by cfg.Resilience. The error cases are
// spec-validation failures; specs produced by ParseBackends never fail.
func NewMultiTransport(cfg Config) (*MultiTransport, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("llm: NewMultiTransport wants at least one backend")
	}
	res := cfg.Resilience.withDefaults()
	mt := &MultiTransport{
		hedgeAfter: cfg.HedgeAfter,
		budget:     resilience.NewBudget(res.BudgetCapacity, res.BudgetRefillEvery),
		log:        cfg.Log,
		start:      time.Now(),
	}
	if mt.log == nil {
		mt.log = slog.New(discardHandler{})
	}
	mt.now = func() time.Duration { return time.Since(mt.start) }
	for _, spec := range cfg.Backends {
		t := spec.Transport
		if t == nil {
			switch spec.Kind {
			case "sim":
				t = PerfectTransport()
				if spec.Fault != nil {
					t = NewFaultyTransport(t, *spec.Fault, cfg.Seed)
				}
			case "http":
				t = NewHTTPBackend(spec.URL)
			default:
				return nil, fmt.Errorf("llm: backend %q: unknown kind %q", spec.Name, spec.Kind)
			}
		}
		b := &backend{
			name:    spec.Name,
			t:       t,
			breaker: resilience.NewBreaker(res.BreakerThreshold, res.BreakerCooldown),
		}
		b.breaker.OnTransition(func(to resilience.BreakerState) { mt.onBreakerLocked(b, to) })
		mt.backends = append(mt.backends, b)
	}
	return mt, nil
}

// discardHandler drops every log record (slog.DiscardHandler arrives in
// go 1.24; this repo pins 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Instrument attaches a metrics registry once (later calls are no-ops,
// so per-job clients sharing a daemon-lifetime transport cannot rebind
// it mid-flight) and returns the transport for chaining.
func (mt *MultiTransport) Instrument(reg *obs.Registry) *MultiTransport {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.reg == nil && reg != nil {
		mt.reg = reg
		for _, b := range mt.backends {
			reg.Gauge("llm_backend_breaker_state", "backend", b.name).Set(breakerStateValue(resilience.Closed))
		}
	}
	return mt
}

// SetClock overrides the breaker clock — a test seam for driving
// cooldowns without waiting wall time.
func (mt *MultiTransport) SetClock(now func() time.Duration) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.now = now
}

// Budget exposes the shared retry/hedge token pool (for the client's
// retry loop and for tests asserting the hedge bound).
func (mt *MultiTransport) Budget() *resilience.Budget { return mt.budget }

// Backends returns the backend names in routing order.
func (mt *MultiTransport) Backends() []string {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	names := make([]string, len(mt.backends))
	for i, b := range mt.backends {
		names[i] = b.name
	}
	return names
}

// breakerStateValue encodes a breaker state for the
// llm_backend_breaker_state gauge: 0 closed, 1 open, 2 half-open.
func breakerStateValue(s resilience.BreakerState) float64 {
	switch s {
	case resilience.Open:
		return 1
	case resilience.HalfOpen:
		return 2
	}
	return 0
}

// onBreakerLocked is the per-backend breaker transition hook. Breakers
// are only ever touched under mt.mu, so this runs locked — it must read
// mt.reg directly, not through a locking accessor.
func (mt *MultiTransport) onBreakerLocked(b *backend, to resilience.BreakerState) {
	mt.reg.Counter("llm_backend_breaker_transitions_total", "backend", b.name, "to", to.String()).Inc()
	mt.reg.Gauge("llm_backend_breaker_state", "backend", b.name).Set(breakerStateValue(to))
	mt.log.Info(evBackendBreaker, "backend", b.name, "state", to.String())
}

// registry returns the attached registry (nil-safe for metrics calls).
func (mt *MultiTransport) registry() *obs.Registry {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.reg
}

// nextOrdinal hands out the next arrival ordinal.
func (mt *MultiTransport) nextOrdinal() int { return int(mt.ord.Add(1)) - 1 }

// takeToken claims one token from the shared budget, reporting whether
// it was granted.
func (mt *MultiTransport) takeToken() bool {
	granted := false
	mt.budget.Claim(0, 0, func(avail, _ int) int {
		if avail > 0 {
			granted = true
			return 1
		}
		return 0
	})
	return granted
}

// tick settles one zero-token claim, advancing the budget's
// refill-every-N-settlements clock — the multi-backend analogue of the
// per-review settlement chaos mode performs at admission.
func (mt *MultiTransport) tick() {
	mt.budget.Claim(0, 0, func(int, int) int { return 0 })
}

// nextAdmitted finds the first backend at position >= from whose
// breaker admits a call right now, returning it and the position after
// it. Admission happens lazily — at most one backend is consulted per
// launch — because a half-open Allow *claims* the single probe slot;
// admitting backends speculatively would leak their probe latches.
func (mt *MultiTransport) nextAdmitted(from int) (*backend, int) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	now := mt.now()
	for i := from; i < len(mt.backends); i++ {
		if mt.backends[i].breaker.Allow(now) {
			return mt.backends[i], i + 1
		}
	}
	return nil, len(mt.backends)
}

// releaseAdmission hands back an admission nextAdmitted granted for a
// call that will never launch. Admitting a half-open backend latches
// its single probe slot, and only a settled outcome (or this release)
// clears the latch — a suppressed hedge that kept the slot would leave
// the backend unroutable forever.
func (mt *MultiTransport) releaseAdmission(b *backend) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	b.breaker.CancelProbe()
}

// recordOutcome settles one finished call against its backend's
// breaker. A context-cancellation is no verdict on the backend (we
// abandoned the call, usually because a hedged rival answered first):
// it only releases a claimed half-open probe slot.
func (mt *MultiTransport) recordOutcome(b *backend, err error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	switch {
	case err == nil:
		b.breaker.RecordSuccess()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		b.breaker.CancelProbe()
	default:
		b.breaker.RecordFailure(mt.now())
	}
}

// result is one backend call's outcome inside Route.
type routeResult struct {
	b     *backend
	err   error
	hedge bool
}

// Do implements Transport by discarding Route's winning-backend name.
func (mt *MultiTransport) Do(ctx context.Context, call Call) error {
	_, err := mt.Route(ctx, call)
	return err
}

// Route delivers one call across the backend set and returns the name
// of the backend that answered. The preferred (first healthy) backend
// is tried first; if HedgeAfter elapses without an answer, a hedge
// launches on the next healthy backend — if the shared budget grants a
// token — and the first success wins, cancelling the loser. When every
// launched attempt fails, routing falls over to the next healthy
// backend in order until the set is exhausted. Every outcome settles
// the owning backend's breaker; an all-breakers-open set returns
// ErrAllBreakersOpen without touching any backend.
func (mt *MultiTransport) Route(ctx context.Context, call Call) (string, error) {
	reg := mt.registry()
	first, next := mt.nextAdmitted(0)
	if first == nil {
		reg.Counter("llm_backend_all_open_total").Inc()
		return "", ErrAllBreakersOpen
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan routeResult, len(mt.backends))
	launch := func(b *backend, hedge bool) {
		reg.Counter("llm_backend_calls_total", "backend", b.name).Inc()
		go func() {
			err := b.t.Do(cctx, call)
			results <- routeResult{b: b, err: err, hedge: hedge}
		}()
	}
	launch(first, false)
	inflight := 1
	var hedgeTimer <-chan time.Time
	if mt.hedgeAfter > 0 && next < len(mt.backends) {
		hedgeTimer = time.After(mt.hedgeAfter)
	}
	hedged := false
	var lastErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			hb, hnext := mt.nextAdmitted(next)
			if hb == nil {
				reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Inc()
				continue
			}
			if !mt.takeToken() {
				// The hedge competes with retries for the same tokens;
				// an empty bucket means the fleet is already spending
				// enough on second chances. nextAdmitted may have
				// latched hb's half-open probe slot — no call will
				// launch to settle it, so hand it back.
				mt.releaseAdmission(hb)
				reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Inc()
				reg.Counter("llm_retry_budget_exhausted_total").Inc()
				continue
			}
			reg.Counter("llm_backend_hedges_total", "outcome", "launched").Inc()
			mt.log.Info(evBackendHedge, "path", call.Path, "backend", hb.name, "after_ms", durFloatMS(mt.hedgeAfter))
			launch(hb, true)
			hedged = true
			inflight++
			next = hnext
		case r := <-results:
			inflight--
			mt.recordOutcome(r.b, r.err)
			if r.err == nil {
				if r.hedge {
					reg.Counter("llm_backend_hedges_total", "outcome", "won").Inc()
				} else if hedged && inflight > 0 {
					reg.Counter("llm_backend_hedges_total", "outcome", "cancelled").Inc()
				}
				cancel()
				if inflight > 0 {
					go mt.drainResults(results, inflight)
				}
				return r.b.name, nil
			}
			reg.Counter("llm_backend_failures_total", "backend", r.b.name).Inc()
			if !isCancellation(r.err) {
				lastErr = r.err
			}
			if inflight > 0 {
				continue // a rival attempt is still running
			}
			fb, fnext := mt.nextAdmitted(next)
			if fb == nil {
				if lastErr == nil {
					lastErr = r.err
				}
				return "", lastErr
			}
			reg.Counter("llm_backend_failovers_total", "backend", fb.name).Inc()
			mt.log.Info(evBackendFailover, "path", call.Path, "from", r.b.name, "to", fb.name, "error", r.err.Error())
			launch(fb, false)
			next = fnext
			inflight++
		}
	}
}

// drainResults settles the breakers of attempts still in flight after a
// winner returned. It runs off the caller's critical path; the
// cancelled context makes the stragglers return promptly.
func (mt *MultiTransport) drainResults(results <-chan routeResult, n int) {
	for i := 0; i < n; i++ {
		r := <-results
		mt.recordOutcome(r.b, r.err)
	}
}

// isCancellation reports whether an error is our own context
// cancellation rather than a backend verdict.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// durFloatMS renders a duration as float milliseconds for log fields.
func durFloatMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Flight coalesces identical in-flight reviews: callers reviewing the
// same content address (config fingerprint, path, content hash — the
// review-cache key ingredients) while an equivalent review is already
// running wait for that review's answer instead of spending another
// upstream call. Share one Flight across clients (wasabid holds one per
// process) to coalesce across concurrent jobs. Only *in-flight*
// duplication coalesces — once the leader finishes, the next caller
// starts fresh (cross-run memoization is the cache's job, not ours).
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	rev  FileReview
}

// NewFlight returns an empty singleflight group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*flightCall)}
}

// Do runs fn for the first caller of key and hands its FileReview to
// every caller that arrives while fn is in flight. The bool reports
// whether this caller shared a leader's answer (true) or ran fn itself
// (false). Shared copies alias nothing mutable with the leader's.
func (f *Flight) Do(key string, fn func() FileReview) (FileReview, bool) {
	f.mu.Lock()
	if fc, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-fc.done
		rev := fc.rev
		rev.Findings = append([]Finding(nil), fc.rev.Findings...)
		return rev, true
	}
	fc := &flightCall{done: make(chan struct{})}
	f.calls[key] = fc
	f.mu.Unlock()
	defer func() {
		// Unregister before release: late arrivals must start a fresh
		// flight, and a panic in fn must not strand waiters.
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(fc.done)
	}()
	fc.rev = fn()
	return fc.rev, false
}

// multiState is the client's multi-backend routing state, present only
// when Config.Backends (or Config.Multi) is set — the multi-mode
// counterpart of chaosState.
type multiState struct {
	res    ResilienceConfig
	mt     *MultiTransport
	flight *Flight
	// fp caches the client's fingerprint for flight keys.
	fp string
}

// newMultiState wires the client to a transport: the one provided via
// Config.Multi (shared, e.g. daemon-lifetime) or a fresh one built from
// Config.Backends (per-run, the CLI shape).
func (c *Client) newMultiState() *multiState {
	mt := c.cfg.Multi
	if mt == nil {
		var err error
		if mt, err = NewMultiTransport(c.cfg); err != nil {
			// Backends reaching NewClient unvalidated is programmer
			// error; flag paths go through ParseBackends first.
			panic(err)
		}
	}
	return &multiState{
		res:    c.cfg.Resilience.withDefaults(),
		mt:     mt,
		flight: c.cfg.Flight,
		fp:     c.cfg.Fingerprint(),
	}
}

// reviewMulti is the multi-backend review path: singleflight coalescing
// around reviewMultiDirect.
func (c *Client) reviewMulti(f *source.File) FileReview {
	ms := c.multi
	if ms.flight == nil {
		return c.reviewMultiDirect(f)
	}
	key := ms.fp + "\x00" + f.Path + "\x00" + f.SHA256
	rev, shared := ms.flight.Do(key, func() FileReview {
		return c.reviewMultiDirect(f)
	})
	if shared {
		rev.Shared = true
		c.reg.Counter("llm_backend_singleflight_shared_total").Inc()
	}
	return rev
}

// reviewMultiDirect runs one review through the routed transport under
// the retry policy: transient route failures retry with
// decorrelated-jitter backoff, each retry paying one token from the
// transport's shared budget (the same pool hedges draw from). Failure
// degrades the review — the same graceful-degradation contract as
// chaos mode — with the reason mapped from the terminal error.
func (c *Client) reviewMultiDirect(f *source.File) FileReview {
	ms := c.multi
	path, size := f.Path, len(f.Bytes)
	ordinal := ms.mt.nextOrdinal()
	budgetDenied := false
	winner := ""
	attempt := 0
	policy := resilience.NewPolicy(ms.res.MaxAttempts,
		resilience.WithDecorrelatedJitter(ms.res.BaseDelay, ms.res.MaxDelay),
		resilience.WithRetryOn(func(err error) bool {
			if !IsTransient(err) {
				return false
			}
			if !ms.mt.takeToken() {
				budgetDenied = true
				c.reg.Counter("llm_retry_budget_exhausted_total").Inc()
				return false
			}
			return true
		}))
	// Backoff sleeps run on a per-review virtual clock; the route's own
	// latency (hedge timers, real HTTP) is wall time.
	reviewCtx := trace.With(context.Background(), trace.NewRun("llm-review"))
	err := policy.DoSeeded(reviewCtx, pathSeed(path, c.cfg.Seed), func(ctx context.Context) error {
		call := Call{Path: path, Ordinal: ordinal, Attempt: attempt, Bytes: size}
		attempt++
		name, rerr := ms.mt.Route(ctx, call)
		if rerr == nil {
			winner = name
		}
		return rerr
	})
	ms.mt.tick()
	retries := attempt - 1
	if retries > 0 {
		c.reg.Counter("llm_transport_retries_total").Add(int64(retries))
	}
	if err != nil {
		rev := c.degraded(path, size, multiDegradeReason(err, budgetDenied))
		rev.Retries = retries
		return rev
	}
	rev := c.review(f)
	rev.Retries = retries
	rev.Backend = winner
	return rev
}

// Multi exposes the routed transport (nil outside multi-backend mode)
// — for tests and reporting, the counterpart of Transport().
func (c *Client) Multi() *MultiTransport {
	if c.multi == nil {
		return nil
	}
	return c.multi.mt
}

// multiDegradeReason maps a terminal routing error onto the Degraded*
// vocabulary resilient.go established.
func multiDegradeReason(err error, budgetDenied bool) string {
	switch {
	case errors.Is(err, ErrAllBreakersOpen):
		return DegradedBreakerOpen
	// CauseIsClass, not IsClass: the policy wraps the terminal error in
	// an exhausted sentinel, and hinted 429s arrive wrapped too.
	case errmodel.CauseIsClass(err, "MalformedCompletionException"):
		return DegradedMalformed
	case errmodel.CauseIsClass(err, "BackendOutageException"):
		return DegradedOutage
	// A cancellation terminal error means every launched attempt was
	// abandoned (the caller's context died mid-route); calling that
	// "retries-exhausted" would blame a backend nobody waited on.
	case isCancellation(err):
		return DegradedCancelled
	case budgetDenied:
		return DegradedBudget
	default:
		return DegradedRetries
	}
}
