// resilient.go is the client's resilience stack for a fault profile
// (Config.Fault): every review is admitted through a shared retry Budget
// and a circuit Breaker, delivered against the FaultyTransport attempt by
// attempt, and — when the backend cannot be made to answer — degraded
// instead of failed, so the pipeline falls back to its static-only
// workflow (the paper's non-LLM techniques keep working when GPT-4 does
// not). Routed mode (Config.Multi, backends.go) is the only one that runs
// a resilience.Policy; both modes end in the same review tail, finish.
//
// Determinism contract. The pipeline promises byte-identical output at
// every worker count, which a naively shared budget/breaker would break:
// whichever goroutine reached the empty bucket first would lose. Instead
// every review is settled whole inside Budget.Claim, which serializes
// settlements in canonical (lane, idx) corpus order. The settle callback
// consults the breaker, then calls the transport once per attempt — its
// fault schedule is a pure function of seed, path, ordinal and attempt —
// spending one granted token per transient fault, and records the outcome
// on the breaker, all before any concurrent review can interleave. No
// retry loop runs afterwards: the outcome is final at admission. All
// timing is virtual: each settlement advances a run-wide admission clock,
// which drives the breaker cooldown.
package llm

import (
	"context"
	"errors"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/resilience"
	"wasabi/internal/source"
	"wasabi/internal/trace"
	"wasabi/internal/vclock"
)

// Degradation reasons recorded on FileReview.DegradedReason.
const (
	// DegradedOutage: the backend is hard-down (outage fault); retrying
	// is pointless and the run itself is considered degraded.
	DegradedOutage = "outage"
	// DegradedMalformed: the completion arrived but was unparseable, and
	// re-sending the same prompt reproduces it.
	DegradedMalformed = "malformed"
	// DegradedBudget: the shared retry budget ran dry before this
	// review's transient faults cleared.
	DegradedBudget = "budget-exhausted"
	// DegradedRetries: the per-review attempt cap was reached with the
	// fault still transient.
	DegradedRetries = "retries-exhausted"
	// DegradedBreakerOpen: the circuit breaker was open, so the review
	// was skipped without touching the backend.
	DegradedBreakerOpen = "breaker-open"
	// DegradedCancelled: the review's context was cancelled before any
	// backend answered (shutdown or caller abandonment, multi-backend
	// mode) — the abandonment says nothing about backend health.
	DegradedCancelled = "cancelled"
)

// degradeReason maps a review's terminal delivery error onto the
// Degraded* vocabulary; budgetDenied reports that the shared budget
// refused the retry a transient fault wanted.
func degradeReason(err error, budgetDenied bool) string {
	switch {
	case errors.Is(err, ErrAllBreakersOpen):
		return DegradedBreakerOpen
	// CauseIsClass, not IsClass: the routed policy wraps the terminal
	// error in an exhausted sentinel, and hinted 429s arrive wrapped too.
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

// ResilienceConfig tunes the retry/budget/breaker stack: the client's
// when a fault profile is configured, a MultiTransport's for routed
// reviews. Zero fields take the DefaultResilienceConfig values.
type ResilienceConfig struct {
	// MaxAttempts bounds delivery attempts per review (so MaxAttempts-1
	// retries), independent of the shared budget.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the decorrelated-jitter backoff
	// between routed-mode attempts (virtual time). Fault-profile reviews
	// settle at admission and never sleep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BudgetCapacity is the size of the retry token bucket shared across
	// every concurrent review of the run.
	BudgetCapacity int
	// BudgetRefillEvery returns one token to the bucket per N settled
	// reviews (0 disables refill: a strict per-run budget).
	BudgetRefillEvery int
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit.
	BreakerThreshold int
	// BreakerCooldown is the virtual time the circuit stays open before
	// admitting a half-open probe.
	BreakerCooldown time.Duration
}

// DefaultResilienceConfig returns the stack the pipeline runs chaos
// experiments with.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		MaxAttempts:       4,
		BaseDelay:         500 * time.Millisecond,
		MaxDelay:          8 * time.Second,
		BudgetCapacity:    8,
		BudgetRefillEvery: 4,
		BreakerThreshold:  3,
		BreakerCooldown:   5 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultResilienceConfig.
func (r ResilienceConfig) withDefaults() ResilienceConfig {
	d := DefaultResilienceConfig()
	if r.MaxAttempts == 0 {
		r.MaxAttempts = d.MaxAttempts
	}
	if r.BaseDelay == 0 {
		r.BaseDelay = d.BaseDelay
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = d.MaxDelay
	}
	if r.BudgetCapacity == 0 {
		r.BudgetCapacity = d.BudgetCapacity
	}
	if r.BudgetRefillEvery == 0 {
		r.BudgetRefillEvery = d.BudgetRefillEvery
	}
	if r.BreakerThreshold == 0 {
		r.BreakerThreshold = d.BreakerThreshold
	}
	if r.BreakerCooldown == 0 {
		r.BreakerCooldown = d.BreakerCooldown
	}
	return r
}

// Virtual costs charged to the run-wide admission clock, which drives the
// breaker cooldown: each delivery attempt models an API round trip, and a
// breaker-skipped review still advances time (the pipeline keeps doing
// static work while the backend cools down).
const (
	attemptLatency = 800 * time.Millisecond
	skipLatency    = 500 * time.Millisecond
)

// chaosState is the per-client resilience stack, present only when
// Config.Fault is set.
type chaosState struct {
	res       ResilienceConfig
	transport *FaultyTransport
	budget    *resilience.Budget
	breaker   *resilience.Breaker
	admCtx    context.Context // run-wide virtual admission clock
}

// newChaosState builds the stack for a fault profile.
func (c *Client) newChaosState(profile FaultProfile) *chaosState {
	res := c.cfg.Resilience.withDefaults()
	ch := &chaosState{
		res:       res,
		transport: NewFaultyTransport(PerfectTransport(), profile, c.cfg.Seed),
		budget:    resilience.NewBudget(res.BudgetCapacity, res.BudgetRefillEvery),
	}
	ch.resetRun()
	return ch
}

// resetRun installs a fresh breaker and admission clock (state from a
// previous run must not leak into the next).
func (ch *chaosState) resetRun() {
	ch.admCtx = trace.With(context.Background(), trace.NewRun("llm-admission"))
	ch.breaker = resilience.NewBreaker(ch.res.BreakerThreshold, ch.res.BreakerCooldown)
}

// instrument wires the transport and breaker to the client's registry.
// The transition hook reads c.reg at call time, so Instrument can attach
// the registry after construction.
func (ch *chaosState) instrument(c *Client) {
	ch.transport.Instrument(c.reg)
	ch.breaker.OnTransition(func(to resilience.BreakerState) {
		c.reg.Counter("llm_breaker_transitions_total", "to", to.String()).Inc()
	})
}

// StartRun prepares the resilience stack for a corpus run of the given
// number of lanes (apps): the shared budget refills and switches to
// canonical sequencing, and the breaker and admission clock reset. A
// client without a fault profile has no stack; the call is a no-op.
func (c *Client) StartRun(lanes int) {
	if c.chaos == nil {
		return
	}
	c.chaos.resetRun()
	c.chaos.instrument(c)
	c.chaos.budget.Sequence(lanes)
}

// OpenLane announces how many reviews lane will settle (see
// resilience.Budget.OpenLane). Every lane passed to StartRun must be
// opened, with 0 claims on error paths. No-op without a fault profile.
func (c *Client) OpenLane(lane, claims int) {
	if c.chaos == nil {
		return
	}
	c.chaos.budget.OpenLane(lane, claims)
}

// reviewChaos runs one review through the resilience stack and returns
// its settled outcome: a Degraded FileReview (never an error) when the
// backend cannot complete it, so the caller falls back to static-only
// analysis for that file.
//
// The whole delivery happens inside the canonical Budget.Claim: the
// breaker admits or skips the review, then each attempt calls the
// transport. A transient fault spends one granted token and retries; a
// permanent fault, the attempt cap or an empty bucket ends the review.
// Admission and delivery depend only on (path, size); the bytes matter
// only to the review itself.
func (c *Client) reviewChaos(f *source.File, lane, idx int) FileReview {
	ch := c.chaos
	retries, reason := 0, ""
	ch.budget.Claim(lane, idx, func(avail, seq int) int {
		if !ch.breaker.Allow(vclock.Now(ch.admCtx)) {
			reason = DegradedBreakerOpen
			vclock.Elapse(ch.admCtx, skipLatency)
			return 0
		}
		var err error
		budgetDenied := false
		for attempt := 0; ; attempt++ {
			err = ch.transport.Do(ch.admCtx, Call{Path: f.Path, Ordinal: seq, Attempt: attempt, Bytes: len(f.Bytes)})
			if err == nil || !IsTransient(err) || attempt+1 >= ch.res.MaxAttempts {
				break
			}
			if retries == avail {
				budgetDenied = true
				c.reg.Counter("llm_retry_budget_exhausted_total").Inc()
				break
			}
			retries++
		}
		vclock.Elapse(ch.admCtx, time.Duration(retries+1)*attemptLatency)
		if err != nil {
			reason = degradeReason(err, budgetDenied)
			ch.breaker.RecordFailure(vclock.Now(ch.admCtx))
		} else {
			ch.breaker.RecordSuccess()
		}
		return retries
	})
	return c.finish(f, retries, "", reason)
}

// finish is the review tail shared by both resilient modes: it counts the
// review's retries, then degrades it with reason or, when reason is
// empty, answers it through the prompt chain, stamping the scheduling
// facts (Retries, and the answering backend in routed mode). A degraded
// review resends nothing and charges nothing — Spent stays zero — which
// is what keeps §4.3 cost accounting stable under chaos.
func (c *Client) finish(f *source.File, retries int, backend, reason string) FileReview {
	if retries > 0 {
		c.reg.Counter("llm_transport_retries_total").Add(int64(retries))
	}
	var rev FileReview
	if reason != "" {
		c.reg.Counter("llm_degraded_reviews_total", "reason", reason).Inc()
		rev = FileReview{File: basename(f.Path), Size: len(f.Bytes), Degraded: true, DegradedReason: reason}
	} else {
		rev = c.review(f)
		rev.Backend = backend
	}
	rev.Retries = retries
	return rev
}
