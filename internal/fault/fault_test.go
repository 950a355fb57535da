package fault

import (
	"context"
	"testing"

	"wasabi/internal/errmodel"
	"wasabi/internal/trace"
)

// fakeRetried simulates a retried method: hook at entry, success otherwise.
func fakeRetried(ctx context.Context) error {
	if err := Hook(ctx); err != nil {
		return err
	}
	return nil
}

// fakeCoordinator simulates a loop-based coordinator retrying fakeRetried.
func fakeCoordinator(ctx context.Context, attempts int) (errs int) {
	for i := 0; i < attempts; i++ {
		if err := fakeRetried(ctx); err != nil {
			errs++
			continue
		}
		return errs
	}
	return errs
}

// otherCoordinator calls the same retried method from a different caller.
func otherCoordinator(ctx context.Context) error {
	return fakeRetried(ctx)
}

func loc(exc string) Location {
	return Location{
		Coordinator: "fault.fakeCoordinator",
		Retried:     "fault.fakeRetried",
		Exception:   exc,
	}
}

func injectCtx(in *Injector) (context.Context, *trace.Run) {
	r := trace.NewRun("t")
	ctx := trace.With(context.Background(), r)
	return With(ctx, in), r
}

func TestHookWithoutInjectorIsNil(t *testing.T) {
	if err := fakeRetried(context.Background()); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestInjectThrowsUpToK(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 3}})
	ctx, _ := injectCtx(in)
	errs := fakeCoordinator(ctx, 10)
	if errs != 3 {
		t.Errorf("throws = %d, want 3", errs)
	}
	if got := in.Throws(loc("ConnectException")); got != 3 {
		t.Errorf("Throws = %d, want 3", got)
	}
}

func TestInjectedExceptionClassAndFlag(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("SocketTimeoutException"), K: 1}})
	ctx, _ := injectCtx(in)
	err := func() error { // inline coordinator named differently: should NOT match
		return fakeRetried(ctx)
	}()
	if err != nil {
		t.Fatalf("anonymous caller should not match coordinator, got %v", err)
	}
	// Now through the real coordinator.
	if errs := fakeCoordinator(ctx, 5); errs != 1 {
		t.Fatalf("throws = %d, want 1", errs)
	}
}

func TestInjectionExceptionProperties(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 1}})
	ctx, _ := injectCtx(in)
	var got error
	for i := 0; i < 3; i++ {
		if err := fakeRetried(ctx); err != nil {
			got = err
		}
	}
	// fakeRetried called directly from the test: test function is not the
	// coordinator, so nothing should throw.
	if got != nil {
		t.Fatalf("direct call threw %v", got)
	}
	if errs := fakeCoordinator(ctx, 3); errs != 1 {
		t.Fatal("coordinator path should throw once")
	}
}

func TestInjectionEventLogged(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 2}})
	ctx, r := injectCtx(in)
	fakeCoordinator(ctx, 10)
	var injections, suppressed int
	for _, e := range r.Events() {
		switch e.Kind {
		case trace.KindInjection:
			injections++
			if e.Callee != "fault.fakeRetried" || e.Caller != "fault.fakeCoordinator" {
				t.Errorf("bad event attribution: %+v", e)
			}
		case trace.KindInjectionSuppressed:
			suppressed++
		}
	}
	if injections != 2 {
		t.Errorf("injection events = %d, want 2", injections)
	}
	if suppressed != 1 {
		t.Errorf("suppressed events = %d, want 1 (the healing call)", suppressed)
	}
}

func TestInjectionCountsMonotonic(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 5}})
	ctx, r := injectCtx(in)
	fakeCoordinator(ctx, 100)
	want := 1
	for _, e := range r.Events() {
		if e.Kind == trace.KindInjection {
			if e.Count != want {
				t.Errorf("Count = %d, want %d", e.Count, want)
			}
			want++
		}
	}
}

func TestCallerMismatchDoesNotThrow(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 1}})
	ctx, _ := injectCtx(in)
	if err := otherCoordinator(ctx); err != nil {
		t.Errorf("other coordinator should not trigger injection, got %v", err)
	}
}

func TestTwoRulesDifferentExceptions(t *testing.T) {
	in := NewInjector([]Rule{
		{Loc: loc("ConnectException"), K: 1},
		{Loc: loc("SocketException"), K: 1},
	})
	ctx, _ := injectCtx(in)
	if errs := fakeCoordinator(ctx, 10); errs != 2 {
		t.Errorf("throws = %d, want 2 (one per rule)", errs)
	}
	if in.Throws(loc("ConnectException")) != 1 || in.Throws(loc("SocketException")) != 1 {
		t.Error("each rule must throw exactly K times")
	}
}

func TestObserverRecordsCoverageOnce(t *testing.T) {
	in := NewObserver([]Location{{Retried: "fault.fakeRetried"}})
	ctx, r := injectCtx(in)
	fakeCoordinator(ctx, 3)
	fakeCoordinator(ctx, 3)
	cov := in.Covered()
	if len(cov) != 1 {
		t.Fatalf("covered = %v", cov)
	}
	if cov[0].Coordinator != "fault.fakeCoordinator" || cov[0].Retried != "fault.fakeRetried" {
		t.Errorf("covered = %+v", cov[0])
	}
	// Coverage event appended exactly once despite repeated hits.
	var n int
	for _, e := range r.Events() {
		if e.Kind == trace.KindCoverage {
			n++
		}
	}
	if n != 1 {
		t.Errorf("coverage events = %d, want 1", n)
	}
}

func TestObserverDistinguishesCallers(t *testing.T) {
	in := NewObserver([]Location{{Retried: "fault.fakeRetried"}})
	ctx, _ := injectCtx(in)
	fakeCoordinator(ctx, 1)
	otherCoordinator(ctx)
	if got := len(in.Covered()); got != 2 {
		t.Errorf("covered pairs = %d, want 2 (two distinct coordinators)", got)
	}
}

func TestObserverIgnoresUnwatched(t *testing.T) {
	in := NewObserver([]Location{{Retried: "some.other.method"}})
	ctx, _ := injectCtx(in)
	fakeCoordinator(ctx, 1)
	if len(in.Covered()) != 0 {
		t.Error("unwatched method should not be covered")
	}
}

func TestHookAtMatchesHookSemantics(t *testing.T) {
	// HookAt with explicit names must behave exactly like Hook with the
	// equivalent stack: throw K times, then heal and suppress.
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 3}})
	ctx, r := injectCtx(in)
	var errs int
	for i := 0; i < 10; i++ {
		if err := HookAt(ctx, "fault.fakeCoordinator", "fault.fakeRetried"); err != nil {
			errs++
			exc, ok := err.(*errmodel.Exception)
			if !ok || !exc.Injected || exc.Class != "ConnectException" {
				t.Fatalf("bad injected error: %#v", err)
			}
			continue
		}
		break
	}
	if errs != 3 {
		t.Errorf("throws = %d, want 3", errs)
	}
	var injections, suppressed int
	for _, e := range r.Events() {
		switch e.Kind {
		case trace.KindInjection:
			injections++
			if e.Callee != "fault.fakeRetried" || e.Caller != "fault.fakeCoordinator" {
				t.Errorf("bad event attribution: %+v", e)
			}
		case trace.KindInjectionSuppressed:
			suppressed++
		}
	}
	if injections != 3 || suppressed != 1 {
		t.Errorf("events = %d injected / %d suppressed, want 3/1", injections, suppressed)
	}
}

func TestHookAtCoordinatorMismatch(t *testing.T) {
	in := NewInjector([]Rule{{Loc: loc("ConnectException"), K: 1}})
	ctx, _ := injectCtx(in)
	if err := HookAt(ctx, "fault.someOtherCoordinator", "fault.fakeRetried"); err != nil {
		t.Errorf("mismatched coordinator should not throw, got %v", err)
	}
	if err := HookAt(ctx, "fault.fakeCoordinator", "fault.someOtherRetried"); err != nil {
		t.Errorf("mismatched retried should not throw, got %v", err)
	}
}

func TestHookAtObserveCoverage(t *testing.T) {
	in := NewObserver([]Location{{Retried: "gen001.Fetcher.fetchOnce"}})
	ctx, r := injectCtx(in)
	for i := 0; i < 3; i++ {
		if err := HookAt(ctx, "gen001.Fetcher.Fetch", "gen001.Fetcher.fetchOnce"); err != nil {
			t.Fatalf("observe mode threw: %v", err)
		}
	}
	cov := in.Covered()
	if len(cov) != 1 || cov[0].Coordinator != "gen001.Fetcher.Fetch" {
		t.Fatalf("covered = %+v", cov)
	}
	var n int
	for _, e := range r.Events() {
		if e.Kind == trace.KindCoverage {
			n++
		}
	}
	if n != 1 {
		t.Errorf("coverage events = %d, want 1", n)
	}
}

func TestHookAtWithoutInjectorIsNil(t *testing.T) {
	if err := HookAt(context.Background(), "a.B.c", "a.B.d"); err != nil {
		t.Errorf("err = %v", err)
	}
}

// capturingCoordinator returns the first error observed while retrying.
func capturingCoordinator(ctx context.Context) error {
	var first error
	for i := 0; i < 5; i++ {
		err := fakeRetried(ctx)
		if err == nil {
			return first
		}
		if first == nil {
			first = err
		}
	}
	return first
}

func TestInjectedErrorIsMarked(t *testing.T) {
	in := NewInjector([]Rule{{
		Loc: Location{Coordinator: "fault.capturingCoordinator", Retried: "fault.fakeRetried", Exception: "ConnectException"},
		K:   1,
	}})
	ctx, _ := injectCtx(in)
	captured := capturingCoordinator(ctx)
	if captured == nil {
		t.Fatal("no injection happened")
	}
	exc, ok := captured.(*errmodel.Exception)
	if !ok || !exc.Injected {
		t.Fatalf("injected error not marked: %#v", captured)
	}
	if exc.Class != "ConnectException" {
		t.Errorf("class = %q", exc.Class)
	}
}

// TestInjectedExceptionSite pins the Site of injected exceptions to the
// constructor the stack walk used to report, through both Hook and
// HookAt: crash grouping by site must not move when arrive names it.
func TestInjectedExceptionSite(t *testing.T) {
	in := NewInjector([]Rule{{
		Loc: Location{Coordinator: "fault.capturingCoordinator", Retried: "fault.fakeRetried", Exception: "ConnectException"},
		K:   10,
	}})
	ctx, _ := injectCtx(in)
	for _, c := range []struct {
		name string
		err  error
	}{
		{"Hook", capturingCoordinator(ctx)},
		{"HookAt", HookAt(ctx, "fault.capturingCoordinator", "fault.fakeRetried")},
	} {
		exc, ok := c.err.(*errmodel.Exception)
		if !ok {
			t.Fatalf("%s: no injected exception: %#v", c.name, c.err)
		}
		if exc.Site != "fault.Injector.arrive" {
			t.Errorf("%s: Site = %q, want fault.Injector.arrive", c.name, exc.Site)
		}
	}
}
