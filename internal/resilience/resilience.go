// Package resilience is a retry/fault-tolerance library in the mold of
// the "resilience frameworks" the paper discusses (§1, e.g. Polly and
// Hystrix): configurable retry-on-error with bounded attempts and backoff,
// a shared retry budget (budget.go), and a circuit breaker (breaker.go).
//
// The paper's observation is that such frameworks help with *configurable*
// policy aspects but (a) cannot decide which errors are transient, (b)
// cannot prevent HOW-retry implementation bugs, and (c) only support simple
// loop-shaped retry. This package exists both as a correct-usage baseline
// for the ablation benchmarks and as the utility a few well-behaved corpus
// components use, in contrast to the ad-hoc retry the rest of the corpus
// implements inline (which is precisely what makes WASABI's identification
// problem hard).
//
// The pipeline also dogfoods the library on its hottest dependency, the
// simulated LLM backend (internal/llm). A fault-profile client settles
// each review at admission: it draws retries from a Budget shared across
// concurrent reviews and trips a Breaker when the backend browns out,
// with no Policy involved. Only routed reviews (llm.MultiTransport) retry
// through a Policy with decorrelated-jitter backoff, on per-backend
// Breakers and the same kind of shared Budget. All timing stays virtual
// (internal/vclock), so chaos experiments are deterministic and fast.
package resilience

import (
	"context"
	"errors"
	"time"

	"wasabi/internal/vclock"
)

// Classifier decides whether an error is worth retrying.
type Classifier func(error) bool

// Policy configures bounded, delayed retry. The zero value retries nothing;
// construct policies with NewPolicy and the With* options.
type Policy struct {
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	maxElapsed  time.Duration
	retryOn     Classifier
	jitter      bool
}

// Option mutates a policy under construction.
type Option func(*Policy)

// NewPolicy returns a policy that performs at most maxAttempts executions
// (so maxAttempts-1 retries) with a fixed 1s delay between attempts and
// retries every error. maxAttempts < 1 is treated as 1.
func NewPolicy(maxAttempts int, opts ...Option) *Policy {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	p := &Policy{
		maxAttempts: maxAttempts,
		baseDelay:   time.Second,
		maxDelay:    time.Second,
		retryOn:     func(error) bool { return true },
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// WithFixedDelay sets a constant delay between attempts.
func WithFixedDelay(d time.Duration) Option {
	return func(p *Policy) { p.baseDelay, p.maxDelay = d, d }
}

// WithExponentialBackoff sets exponential backoff from base up to max.
func WithExponentialBackoff(base, max time.Duration) Option {
	return func(p *Policy) { p.baseDelay, p.maxDelay = base, max }
}

// WithDecorrelatedJitter sets decorrelated-jitter backoff: each delay is
// drawn from [base, 3·previous) and capped at max, which decorrelates
// concurrent retriers after a shared outage (the thundering-herd fix the
// resilience-framework literature recommends). Delays come from a
// deterministic generator; seed the sequence per call site with DoSeeded
// so runs stay reproducible.
func WithDecorrelatedJitter(base, max time.Duration) Option {
	return func(p *Policy) { p.baseDelay, p.maxDelay, p.jitter = base, max, true }
}

// WithMaxElapsed bounds the total virtual time spent retrying. Zero means
// no time bound (attempts still bound the loop).
func WithMaxElapsed(d time.Duration) Option {
	return func(p *Policy) { p.maxElapsed = d }
}

// WithRetryOn sets the transient-error classifier.
func WithRetryOn(c Classifier) Option {
	return func(p *Policy) { p.retryOn = c }
}

// MaxAttempts returns the configured attempt bound.
func (p *Policy) MaxAttempts() int { return p.maxAttempts }

// retryAfterError annotates an error with a server-provided Retry-After
// hint. It wraps transparently: errors.Is/As and chain-walking class
// checks (errmodel.CauseIsClass) on the underlying error keep working;
// outermost-only checks (errmodel.IsClass) deliberately see the wrapper.
type retryAfterError struct {
	err  error
	hint time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// WithRetryAfterHint annotates err with a server-provided Retry-After
// hint (e.g. parsed from an HTTP 429 response header). A nil error or a
// non-positive hint is returned unchanged.
func WithRetryAfterHint(err error, hint time.Duration) error {
	if err == nil || hint <= 0 {
		return err
	}
	return &retryAfterError{err: err, hint: hint}
}

// RetryAfterHint extracts the outermost Retry-After hint from err's
// wrap chain, reporting whether one was present.
func RetryAfterHint(err error) (time.Duration, bool) {
	for err != nil {
		if ra, ok := err.(*retryAfterError); ok {
			return ra.hint, true
		}
		err = errors.Unwrap(err)
	}
	return 0, false
}

// ErrAttemptsExhausted wraps the last error when the attempt cap is hit.
var ErrAttemptsExhausted = errors.New("resilience: retry attempts exhausted")

// ErrDeadlineExhausted wraps the last error when the elapsed-time cap is hit.
var ErrDeadlineExhausted = errors.New("resilience: retry deadline exhausted")

// exhaustedError carries the sentinel plus the last attempt's error.
type exhaustedError struct {
	sentinel error
	last     error
}

func (e *exhaustedError) Error() string   { return e.sentinel.Error() + ": " + e.last.Error() }
func (e *exhaustedError) Unwrap() error   { return e.last }
func (e *exhaustedError) Is(t error) bool { return t == e.sentinel }

// Do executes fn until it succeeds, the classifier rejects its error, the
// attempt cap is reached, or the elapsed-time cap is exceeded. The
// classifier runs only between attempts — never after the final one —
// so a stateful classifier pays exactly once per retry that can
// actually execute. Delays between attempts go through the virtual
// clock, so instrumented runs observe them as proper retry delays.
//
// The context is checked on entry (an already-cancelled context performs
// zero attempts), and the elapsed-time cap is checked *before* each
// backoff sleep: a delay that would overshoot the deadline is never slept,
// so the final backoff is not burned after the deadline became
// unreachable.
func (p *Policy) Do(ctx context.Context, fn func(context.Context) error) error {
	return p.DoSeeded(ctx, 0, fn)
}

// DoSeeded is Do with an explicit seed for the decorrelated-jitter delay
// sequence. Callers that need reproducible delays across runs derive the
// seed from a stable identity (the LLM client hashes the file path);
// policies without jitter ignore the seed.
func (p *Policy) DoSeeded(ctx context.Context, seed uint64, fn func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := vclock.Now(ctx)
	rng := prng(seed)
	prev := p.baseDelay
	var last error
	for attempt := 0; attempt < p.maxAttempts; attempt++ {
		if attempt > 0 {
			d := p.delay(attempt, &prev, &rng)
			// A server-provided Retry-After hint floors the sleep: the
			// server told us when it will be ready, and retrying earlier
			// both wastes an attempt and worsens the congestion the 429
			// signaled. The hint is deliberately not capped by maxDelay —
			// it overrides local policy — but the elapsed-time cap below
			// still applies, so a hostile hint cannot pin the caller.
			if hint, ok := RetryAfterHint(last); ok && hint > d {
				d = hint
			}
			if p.maxElapsed > 0 && vclock.Now(ctx)-start+d > p.maxElapsed {
				return &exhaustedError{sentinel: ErrDeadlineExhausted, last: last}
			}
			vclock.Sleep(ctx, d)
		}
		last = fn(ctx)
		if last == nil {
			return nil
		}
		// The classifier is consulted only while a retry could still run:
		// its verdict on the final attempt cannot change the outcome, and
		// classifiers may carry side effects per approved retry (the LLM
		// client debits a shared budget token) that must not fire for a
		// retry that never executes. A final-attempt failure therefore
		// always surfaces as ErrAttemptsExhausted, wrapping the last error.
		if attempt == p.maxAttempts-1 {
			break
		}
		if !p.retryOn(last) {
			return last
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return &exhaustedError{sentinel: ErrAttemptsExhausted, last: last}
}

// delay computes the backoff before the given attempt (attempt >= 1),
// updating the jitter state.
func (p *Policy) delay(attempt int, prev *time.Duration, rng *prng) time.Duration {
	if !p.jitter {
		return vclock.Backoff(p.baseDelay, attempt-1, p.maxDelay)
	}
	// Decorrelated jitter: uniform in [base, 3·prev), capped at max.
	d := p.baseDelay
	if span := 3**prev - p.baseDelay; span > 0 {
		d += time.Duration(rng.next() % uint64(span))
	}
	if d > p.maxDelay {
		d = p.maxDelay
	}
	*prev = d
	return d
}

// prng is a splitmix64 generator: tiny, deterministic, and good enough to
// decorrelate backoff delays.
type prng uint64

func (s *prng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}
