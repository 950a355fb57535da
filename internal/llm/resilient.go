// resilient.go is the client's resilience stack: when a fault profile is
// configured (Config.Fault), every review is admitted through a shared
// retry Budget and a circuit Breaker, executed against the FaultyTransport
// under a decorrelated-jitter retry Policy, and — when the backend cannot
// be made to answer — degraded instead of failed, so the pipeline falls
// back to its static-only workflow (the paper's non-LLM techniques keep
// working when GPT-4 does not).
//
// Determinism contract. The pipeline promises byte-identical output at
// every worker count, which a naively shared budget/breaker would break:
// whichever goroutine reached the empty bucket first would lose. Instead
// every review settles its admission inside Budget.Claim, which serializes
// settlements in canonical (lane, idx) corpus order. The settle callback
// dry-runs the transport's fault schedule (a pure function of seed, path
// and attempt), decides the retry grant and the outcome, and updates the
// breaker — all before any concurrent execution can interleave. The real
// retry loop then replays the same schedule outside the lock and must
// reach the same outcome. All timing is virtual: backoff sleeps run on a
// per-review trace.Run, and the breaker cooldown runs on a run-wide
// admission clock advanced per settlement.
package llm

import (
	"context"
	"hash/fnv"
	"time"

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

// ResilienceConfig tunes the retry/budget/breaker stack used when a fault
// profile is configured. Zero fields take the DefaultResilienceConfig
// values.
type ResilienceConfig struct {
	// MaxAttempts bounds delivery attempts per review (so MaxAttempts-1
	// retries), independent of the shared budget.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the decorrelated-jitter backoff
	// between attempts (virtual time).
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

// admission is the settle-time decision for one review.
type admission struct {
	ordinal int    // canonical arrival index (outage windows key on it)
	granted int    // retry tokens granted from the shared budget
	skip    bool   // breaker open: do not touch the backend at all
	reason  string // degradation reason; "" means the review will succeed
}

// admit settles the review's claim against the shared budget and breaker,
// in canonical order. All decisions are made here, under the budget lock,
// from the transport's pure fault schedule — the concurrent execution
// that follows merely replays them.
func (c *Client) admit(path string, lane, idx int) admission {
	ch := c.chaos
	var ad admission
	ch.budget.Claim(lane, idx, func(avail, seq int) int {
		ad.ordinal = seq
		now := vclock.Now(ch.admCtx)
		if !ch.breaker.Allow(now) {
			ad.skip = true
			ad.reason = DegradedBreakerOpen
			vclock.Elapse(ch.admCtx, skipLatency)
			return 0
		}
		plan := ch.transport.planFor(path, seq, ch.res.MaxAttempts)
		ad.granted = plan.retriesWanted
		if ad.granted > avail {
			ad.granted = avail
			c.reg.Counter("llm_retry_budget_exhausted_total").Inc()
		}
		switch {
		case plan.permanent == FaultOutage:
			ad.reason = DegradedOutage
		case ad.granted < plan.retriesWanted:
			ad.reason = DegradedBudget
		case plan.permanent == FaultMalformed:
			ad.reason = DegradedMalformed
		case !plan.delivered:
			ad.reason = DegradedRetries
		}
		vclock.Elapse(ch.admCtx, time.Duration(ad.granted+1)*attemptLatency)
		if ad.reason == "" {
			ch.breaker.RecordSuccess()
		} else {
			ch.breaker.RecordFailure(vclock.Now(ch.admCtx))
		}
		return ad.granted
	})
	return ad
}

// reviewChaos runs one review through the resilience stack: admission in
// canonical order, then the real retry loop against the faulty transport
// on a per-review virtual clock. A review the backend cannot complete
// returns a Degraded FileReview (never an error): the caller falls back
// to static-only analysis for that file. Admission and delivery depend
// only on (path, size); the bytes matter only to the review itself.
func (c *Client) reviewChaos(f *source.File, lane, idx int) FileReview {
	ch := c.chaos
	path, size := f.Path, len(f.Bytes)
	ad := c.admit(path, lane, idx)
	if ad.skip {
		return c.degraded(path, size, ad.reason)
	}

	// Real delivery: bounded attempts, decorrelated-jitter backoff seeded
	// by the file path, retries capped by the granted allowance. The
	// transport replays the same fault schedule the admission dry-ran.
	allowance := ad.granted
	policy := resilience.NewPolicy(ch.res.MaxAttempts,
		resilience.WithDecorrelatedJitter(ch.res.BaseDelay, ch.res.MaxDelay),
		resilience.WithRetryOn(func(err error) bool {
			if !IsTransient(err) || allowance <= 0 {
				return false
			}
			allowance--
			return true
		}))
	attempt := 0
	reviewCtx := trace.With(context.Background(), trace.NewRun("llm-review"))
	err := policy.DoSeeded(reviewCtx, pathSeed(path, c.cfg.Seed), func(ctx context.Context) error {
		call := Call{Path: path, Ordinal: ad.ordinal, Attempt: attempt, Bytes: size}
		attempt++
		return ch.transport.Do(ctx, call)
	})
	retries := attempt - 1
	if retries > 0 {
		c.reg.Counter("llm_transport_retries_total").Add(int64(retries))
	}
	if err != nil {
		reason := ad.reason
		if reason == "" {
			// Execution disagreed with the admission dry-run; that would
			// be a bug, but degrade honestly rather than panic.
			reason = DegradedRetries
		}
		rev := c.degraded(path, size, reason)
		rev.Retries = retries
		return rev
	}
	rev := c.review(f)
	rev.Retries = retries
	return rev
}

// degraded builds the review record for a file the backend never
// successfully reviewed. Spent stays zero — a degraded review resends
// nothing and charges nothing, which is what keeps §4.3 cost accounting
// stable under chaos.
func (c *Client) degraded(path string, size int, reason string) FileReview {
	base := basename(path)
	c.reg.Counter("llm_degraded_reviews_total", "reason", reason).Inc()
	return FileReview{File: base, Size: size, Degraded: true, DegradedReason: reason}
}

// pathSeed derives the per-review jitter seed from the file path, so
// backoff delays are reproducible run to run yet uncorrelated file to
// file.
func pathSeed(path string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() ^ seed
}

// Transport exposes the fault-injecting transport (nil when no fault
// profile is configured) — for tests and reporting.
func (c *Client) Transport() *FaultyTransport {
	if c.chaos == nil {
		return nil
	}
	return c.chaos.transport
}
