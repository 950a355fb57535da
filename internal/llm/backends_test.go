package llm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// fnTransport adapts a function to the Transport interface — the test
// seam BackendSpec.Transport exists for.
type fnTransport struct {
	fn func(ctx context.Context, call Call) error
}

func (t fnTransport) Do(ctx context.Context, call Call) error { return t.fn(ctx, call) }

// memFile is a minimal one-package source file loaded through a store.
func memFile(t testing.TB) *source.File {
	t.Helper()
	return snapshotFile(t, "mem.go", []byte("package mem\n"))
}

// okTransport always succeeds.
func okTransport() Transport {
	return fnTransport{fn: func(context.Context, Call) error { return nil }}
}

// failTransport always fails with the given exception class.
func failTransport(class string) Transport {
	return fnTransport{fn: func(context.Context, Call) error {
		return errmodel.New(class, class)
	}}
}

// slowTransport succeeds after d, or returns ctx.Err() if cancelled
// first.
func slowTransport(d time.Duration) Transport {
	return fnTransport{fn: func(ctx context.Context, _ Call) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
}

func TestParseBackendsGrammar(t *testing.T) {
	specs, err := ParseBackends("primary=sim:outage; secondary=sim;edge=http:http://127.0.0.1:8081")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if specs[0].Name != "primary" || specs[0].Kind != "sim" || specs[0].Fault == nil || !specs[0].Fault.HardOutage {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Name != "secondary" || specs[1].Kind != "sim" || specs[1].Fault != nil {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	if specs[2].Kind != "http" || specs[2].URL != "http://127.0.0.1:8081" {
		t.Errorf("spec 2 = %+v", specs[2])
	}
	// Round-trip: rendering re-parses to the same topology string.
	rendered := backendsString(specs)
	again, err := ParseBackends(rendered)
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", rendered, err)
	}
	if backendsString(again) != rendered {
		t.Errorf("round-trip drifted: %q -> %q", rendered, backendsString(again))
	}
}

func TestParseBackendsErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "no backends"},
		{";;", "no backends"},
		{"sim", "name=kind"},
		{"=sim", "name=kind"},
		{"bad name=sim", "must match"},
		{"a=sim;a=sim", "duplicate"},
		{"a=ftp:x", "unknown kind"},
		{"a=http", "wants a URL"},
		{"a=sim:bogus-profile", "bogus-profile"},
	}
	for _, c := range cases {
		if _, err := ParseBackends(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseBackends(%q) err = %v, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestFailoverOnFailure: the primary fails hard, the secondary answers —
// routing completes the review with the secondary's name on it and the
// failover counter incremented.
func TestFailoverOnFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = []BackendSpec{
		{Name: "primary", Kind: "sim", Transport: failTransport("BackendOutageException")},
		{Name: "secondary", Kind: "sim", Transport: okTransport()},
	}
	reg := obs.NewRegistry()
	c := NewClient(cfg).Instrument(reg)
	rev := c.ReviewSnapshotAt(memFile(t), -1, 0)
	if rev.Degraded {
		t.Fatalf("review degraded: %+v", rev)
	}
	if rev.Backend != "secondary" {
		t.Errorf("winning backend = %q, want secondary", rev.Backend)
	}
	if got := reg.Counter("llm_backend_failovers_total", "backend", "secondary").Value(); got != 1 {
		t.Errorf("failovers into secondary = %d, want 1", got)
	}
	if got := reg.Counter("llm_backend_failures_total", "backend", "primary").Value(); got != 1 {
		t.Errorf("primary failures = %d, want 1", got)
	}
}

// TestAllBackendsFailDegrades: every backend fails permanently — the
// review degrades with the outage reason instead of erroring out.
func TestAllBackendsFailDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = []BackendSpec{
		{Name: "a", Kind: "sim", Transport: failTransport("BackendOutageException")},
		{Name: "b", Kind: "sim", Transport: failTransport("BackendOutageException")},
	}
	reg := obs.NewRegistry()
	rev := NewClient(cfg).Instrument(reg).ReviewSnapshotAt(memFile(t), -1, 0)
	if !rev.Degraded {
		t.Fatal("review did not degrade with every backend down")
	}
	if rev.DegradedReason != DegradedOutage {
		t.Errorf("degrade reason = %q, want %q", rev.DegradedReason, DegradedOutage)
	}
}

// TestHedgeBudgetBound: hedges draw from the shared retry budget —
// with capacity 2 and refill disabled, at most two hedges ever launch no
// matter how many slow reviews route; the rest are suppressed and
// counted against the budget.
func TestHedgeBudgetBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HedgeAfter = time.Millisecond
	cfg.Resilience = ResilienceConfig{BudgetCapacity: 2, BudgetRefillEvery: -1}
	cfg.Backends = []BackendSpec{
		{Name: "primary", Kind: "sim", Transport: slowTransport(50 * time.Millisecond)},
		{Name: "secondary", Kind: "sim", Transport: slowTransport(50 * time.Millisecond)},
	}
	mt, err := NewMultiTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mt.Instrument(reg)
	const reviews = 6
	for i := 0; i < reviews; i++ {
		if _, err := mt.Route(context.Background(), Call{Path: "mem.go", Ordinal: i}); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
	launched := reg.Counter("llm_backend_hedges_total", "outcome", "launched").Value()
	suppressed := reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Value()
	if launched != 2 {
		t.Errorf("hedges launched = %d, want exactly the budget capacity (2)", launched)
	}
	if suppressed != reviews-2 {
		t.Errorf("hedges suppressed = %d, want %d", suppressed, reviews-2)
	}
	if got := mt.Budget().Remaining(); got != 0 {
		t.Errorf("budget remaining = %d, want 0", got)
	}
	if got := reg.Counter("llm_retry_budget_exhausted_total").Value(); got != reviews-2 {
		t.Errorf("budget-exhausted counter = %d, want %d", got, reviews-2)
	}
}

// TestHedgeWinnerCancelsLoser: the primary is slow, the hedge answers
// first — the hedge wins, the slow primary is cancelled, and the
// cancellation is no verdict against the primary's breaker.
func TestHedgeWinnerCancelsLoser(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HedgeAfter = time.Millisecond
	cfg.Backends = []BackendSpec{
		{Name: "primary", Kind: "sim", Transport: slowTransport(10 * time.Second)},
		{Name: "secondary", Kind: "sim", Transport: okTransport()},
	}
	mt, err := NewMultiTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mt.Instrument(reg)
	name, err := mt.Route(context.Background(), Call{Path: "mem.go"})
	if err != nil {
		t.Fatal(err)
	}
	if name != "secondary" {
		t.Errorf("winner = %q, want secondary", name)
	}
	if got := reg.Counter("llm_backend_hedges_total", "outcome", "won").Value(); got != 1 {
		t.Errorf("hedge-won counter = %d, want 1", got)
	}
	// The abandoned primary must not be penalized: its breaker never
	// transitions, so the state gauge stays at the closed seed value.
	if got := reg.Gauge("llm_backend_breaker_state", "backend", "primary").Value(); got != 0 {
		t.Errorf("primary breaker state gauge = %v, want 0 (closed)", got)
	}
}

// openEveryBreaker drives every backend's breaker open via failing
// routes. Wants BreakerThreshold 1.
func openEveryBreaker(t *testing.T, mt *MultiTransport, backends int) {
	t.Helper()
	if _, err := mt.Route(context.Background(), Call{Path: "mem.go"}); err == nil {
		t.Fatal("route against failing backends succeeded")
	}
	// One failing route records a failure on every backend it fell over
	// to, which at threshold 1 opens each breaker it touched. With lazy
	// admission that is every backend.
	_ = backends
}

// TestAllBreakersOpen: once every breaker is open, routing returns
// ErrAllBreakersOpen without touching a backend, and the review layer
// maps it to the breaker-open degrade reason.
func TestAllBreakersOpen(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Resilience = ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: 5 * time.Second, BudgetRefillEvery: -1}
	calls := 0
	var mu sync.Mutex
	counting := fnTransport{fn: func(context.Context, Call) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return errmodel.New("BackendOutageException", "down")
	}}
	cfg.Backends = []BackendSpec{
		{Name: "a", Kind: "sim", Transport: counting},
		{Name: "b", Kind: "sim", Transport: counting},
	}
	mt, err := NewMultiTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mt.Instrument(reg)
	clock := time.Duration(0)
	mt.SetClock(func() time.Duration { return clock })

	openEveryBreaker(t, mt, 2)
	mu.Lock()
	before := calls
	mu.Unlock()
	if _, err := mt.Route(context.Background(), Call{Path: "mem.go"}); !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("err = %v, want ErrAllBreakersOpen", err)
	}
	mu.Lock()
	after := calls
	mu.Unlock()
	if after != before {
		t.Errorf("all-open routing still called a backend (%d -> %d calls)", before, after)
	}
	if got := reg.Counter("llm_backend_all_open_total").Value(); got != 1 {
		t.Errorf("all-open counter = %d, want 1", got)
	}
	if got := reg.Gauge("llm_backend_breaker_state", "backend", "a").Value(); got != 1 {
		t.Errorf("breaker a state gauge = %v, want 1 (open)", got)
	}
	if multiDegradeReason(ErrAllBreakersOpen, false) != DegradedBreakerOpen {
		t.Error("ErrAllBreakersOpen must map to the breaker-open degrade reason")
	}
}

// TestHalfOpenSingleProbeUnderConcurrency: after the cooldown, two
// racing routes must not both be admitted as probes — exactly one gets
// the half-open slot, the other finds nowhere to route. Run under -race
// (make chaos does): the probe latch is the synchronization under test.
func TestHalfOpenSingleProbeUnderConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Resilience = ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: 5 * time.Second, BudgetRefillEvery: -1}
	gate := make(chan struct{})
	healthy := false
	var mu sync.Mutex
	cfg.Backends = []BackendSpec{{Name: "only", Kind: "sim", Transport: fnTransport{fn: func(ctx context.Context, _ Call) error {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if !ok {
			return errmodel.New("ServiceUnavailableException", "warming up")
		}
		<-gate
		return nil
	}}}}
	mt, err := NewMultiTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mt.Instrument(reg)
	clock := time.Duration(0)
	mt.SetClock(func() time.Duration { return clock })

	// Open the breaker, then recover the backend and expire the cooldown.
	if _, err := mt.Route(context.Background(), Call{Path: "mem.go"}); err == nil {
		t.Fatal("warm-up route succeeded")
	}
	mu.Lock()
	healthy = true
	mu.Unlock()
	clock = 6 * time.Second

	type out struct {
		name string
		err  error
	}
	results := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			name, err := mt.Route(context.Background(), Call{Path: "mem.go"})
			results <- out{name, err}
		}()
	}
	// Exactly one goroutine holds the probe slot (blocked on gate); the
	// other must already have been refused.
	first := <-results
	if !errors.Is(first.err, ErrAllBreakersOpen) {
		t.Fatalf("loser err = %v, want ErrAllBreakersOpen (probe slot already claimed)", first.err)
	}
	close(gate)
	second := <-results
	if second.err != nil || second.name != "only" {
		t.Fatalf("probe route = %q, %v, want only, nil", second.name, second.err)
	}
	// The successful probe closed the circuit again.
	if got := reg.Gauge("llm_backend_breaker_state", "backend", "only").Value(); got != 0 {
		t.Errorf("breaker state gauge after probe = %v, want 0 (closed)", got)
	}
	if _, err := mt.Route(context.Background(), Call{Path: "mem.go"}); err != nil {
		t.Fatalf("post-recovery route: %v", err)
	}
}

// TestHedgeSuppressionReleasesProbeSlot: a hedge target in half-open
// state has its single probe slot claimed by admission; when the empty
// budget then suppresses the hedge, the slot must be handed back —
// otherwise no call ever settles it and the backend is unroutable for
// the rest of the transport's (daemon-long) life.
func TestHedgeSuppressionReleasesProbeSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HedgeAfter = time.Millisecond
	cfg.Resilience = ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: 5 * time.Second, BudgetCapacity: 1, BudgetRefillEvery: -1}
	healthy := false
	var mu sync.Mutex
	secondary := fnTransport{fn: func(context.Context, Call) error {
		mu.Lock()
		defer mu.Unlock()
		if !healthy {
			return errmodel.New("ServiceUnavailableException", "warming up")
		}
		return nil
	}}
	cfg.Backends = []BackendSpec{
		{Name: "primary", Kind: "sim", Transport: slowTransport(30 * time.Millisecond)},
		{Name: "secondary", Kind: "sim", Transport: secondary},
	}
	mt, err := NewMultiTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mt.Instrument(reg)
	clock := time.Duration(0)
	mt.SetClock(func() time.Duration { return clock })

	// Open the secondary's breaker directly (threshold 1), then recover
	// the backend and expire the cooldown so it sits half-open with one
	// probe slot available.
	mt.recordOutcome(mt.backends[1], errmodel.New("ServiceUnavailableException", "down"))
	mu.Lock()
	healthy = true
	mu.Unlock()
	clock = 6 * time.Second
	// Drain the one-token budget so the hedge finds the bucket empty
	// (withDefaults treats capacity 0 as "use the default").
	if !mt.takeToken() {
		t.Fatal("draining the budget failed (test setup)")
	}

	// The slow primary trips the hedge timer; admission claims the
	// secondary's probe slot, then the empty budget suppresses the
	// hedge. The slot must come back with the suppression.
	if _, err := mt.Route(context.Background(), Call{Path: "mem.go"}); err != nil {
		t.Fatalf("route with suppressed hedge: %v", err)
	}
	if got := reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Value(); got != 1 {
		t.Fatalf("suppressed hedges = %d, want 1 (test setup)", got)
	}

	// The secondary must still be probe-able: a failing primary now
	// fails over to it, and the probe succeeds.
	mt.backends[0].t = failTransport("BackendOutageException")
	name, err := mt.Route(context.Background(), Call{Path: "mem.go"})
	if err != nil {
		t.Fatalf("post-suppression route: %v (leaked probe latch keeps the secondary unroutable)", err)
	}
	if name != "secondary" {
		t.Errorf("winner = %q, want secondary", name)
	}
	if got := reg.Gauge("llm_backend_breaker_state", "backend", "secondary").Value(); got != 0 {
		t.Errorf("secondary breaker state = %v, want 0 (closed after successful probe)", got)
	}
}

// TestFlightCoalesces: callers arriving while an identical review is in
// flight share the leader's answer; late callers start fresh; shared
// copies do not alias the leader's findings slice.
func TestFlightCoalesces(t *testing.T) {
	f := NewFlight()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderRev := FileReview{File: "x.go", Findings: []Finding{{Coordinator: "w"}}}

	var follower FileReview
	var followerShared bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rev, shared := f.Do("k", func() FileReview {
			close(entered)
			<-release
			return leaderRev
		})
		if shared {
			t.Error("leader reported shared")
		}
		if len(rev.Findings) != 1 {
			t.Errorf("leader findings = %v", rev.Findings)
		}
	}()
	<-entered
	go func() {
		defer wg.Done()
		follower, followerShared = f.Do("k", func() FileReview {
			t.Error("follower ran the review fn")
			return FileReview{}
		})
	}()
	// The follower blocks on the leader's flight; give it a moment to
	// register, then let the leader finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if !followerShared {
		t.Fatal("follower did not share the leader's flight")
	}
	if follower.File != "x.go" || len(follower.Findings) != 1 {
		t.Fatalf("follower rev = %+v", follower)
	}
	follower.Findings[0].Coordinator = "mutated"
	if leaderRev.Findings[0].Coordinator != "w" {
		t.Error("shared copy aliases the leader's findings")
	}
	// The flight is settled: the next caller runs fresh.
	ran := false
	if _, shared := f.Do("k", func() FileReview { ran = true; return FileReview{} }); shared || !ran {
		t.Error("late caller after settlement must start a fresh flight")
	}
}

// TestClientSingleflightSharesOneCall: two concurrent client reviews of
// identical content make exactly one upstream call; the follower's
// FileReview is marked Shared and the shared counter records it.
func TestClientSingleflightSharesOneCall(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	var mu sync.Mutex
	cfg := DefaultConfig()
	cfg.Flight = NewFlight()
	cfg.Backends = []BackendSpec{{Name: "only", Kind: "sim", Transport: fnTransport{fn: func(context.Context, Call) error {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
		return nil
	}}}}
	reg := obs.NewRegistry()
	c := NewClient(cfg).Instrument(reg)

	f := memFile(t)
	revs := make(chan FileReview, 2)
	go func() { revs <- c.ReviewSnapshotAt(f, -1, 0) }()
	<-entered
	go func() { revs <- c.ReviewSnapshotAt(f, -1, 0) }()
	// Let the second review reach the flight wait before the leader's
	// transport answers.
	time.Sleep(20 * time.Millisecond)
	close(release)
	a, b := <-revs, <-revs
	mu.Lock()
	upstream := calls
	mu.Unlock()
	if upstream != 1 {
		t.Fatalf("upstream calls = %d, want 1 (coalesced)", upstream)
	}
	sharedCount := 0
	for _, rev := range []FileReview{a, b} {
		if rev.Degraded {
			t.Fatalf("degraded review: %+v", rev)
		}
		if rev.Shared {
			sharedCount++
		}
	}
	if sharedCount != 1 {
		t.Errorf("shared reviews = %d, want exactly 1 follower", sharedCount)
	}
	if got := reg.Counter("llm_backend_singleflight_shared_total").Value(); got != 1 {
		t.Errorf("singleflight counter = %d, want 1", got)
	}
}

// TestFingerprintCoversTopology: backend topology and hedge threshold
// are part of the config fingerprint (they change routing, so cached
// reviews must not cross them) — and the default config's fingerprint is
// untouched, keeping PR 3 cache keys and chaos baselines stable.
func TestFingerprintCoversTopology(t *testing.T) {
	base := DefaultConfig().Fingerprint()
	if strings.Contains(base, "backends=") || strings.Contains(base, "hedge=") {
		t.Errorf("default fingerprint mentions backends: %q", base)
	}
	cfg := DefaultConfig()
	var err error
	cfg.Backends, err = ParseBackends("primary=sim:outage;secondary=sim")
	if err != nil {
		t.Fatal(err)
	}
	fp1 := cfg.Fingerprint()
	if fp1 == base {
		t.Error("topology did not change the fingerprint")
	}
	cfg.HedgeAfter = 50 * time.Millisecond
	if cfg.Fingerprint() == fp1 {
		t.Error("hedge threshold did not change the fingerprint")
	}
}

// TestMultiBackendZeroRetriesKeepsBudgetFull: healthy routing never
// touches the shared budget (tokens pay for retries and hedges only).
func TestMultiBackendZeroRetriesKeepsBudgetFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Resilience = ResilienceConfig{BudgetCapacity: 4, BudgetRefillEvery: -1}
	cfg.Backends = []BackendSpec{{Name: "only", Kind: "sim", Transport: okTransport()}}
	c := NewClient(cfg).Instrument(obs.NewRegistry())
	for i := 0; i < 5; i++ {
		if rev := c.ReviewSnapshotAt(memFile(t), -1, 0); rev.Degraded || rev.Retries != 0 {
			t.Fatalf("healthy review %d: %+v", i, rev)
		}
	}
	if got := c.Multi().Budget().Remaining(); got != 4 {
		t.Errorf("budget remaining = %d, want untouched 4", got)
	}
}
