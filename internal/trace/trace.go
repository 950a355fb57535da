// Package trace records what happens during an instrumented test run.
//
// Every WASABI dynamic-workflow test run owns a *Run: the fault-injection
// runtime appends injection events, the virtual clock appends sleep events,
// corpus code may append notes, and the test runner appends the final
// outcome. The retry test oracles (internal/oracle) operate purely on this
// record, mirroring the paper's design where oracles post-process test logs
// (§3.1.3).
//
// A Run is goroutine-safe (its event log and virtual clock share one
// mutex) and strictly per-execution: testkit.Run creates a fresh Run for
// every test invocation, which is what lets the parallel plan executor in
// internal/core run independent injection experiments concurrently without
// their traces or clocks interfering.
//
// Callers, the stack walk behind every fault hook, sleep and exception
// site, costs one unwind plus a map lookup per frame: each program
// counter is symbolised once per process and its normalised name
// memoised.
package trace

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// EventKind classifies trace events.
type EventKind int

const (
	// KindInjection records a fault-injection handler throwing an exception.
	KindInjection EventKind = iota
	// KindInjectionSuppressed records a handler reached after its K
	// threshold was exhausted (the fault has "healed").
	KindInjectionSuppressed
	// KindSleep records a call to a sleep API.
	KindSleep
	// KindCoverage records, in observe mode, that a retry location was
	// reached (used by the test planner's coverage pass).
	KindCoverage
	// KindNote records free-form application events.
	KindNote
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case KindInjection:
		return "inject"
	case KindInjectionSuppressed:
		return "inject-suppressed"
	case KindSleep:
		return "sleep"
	case KindCoverage:
		return "coverage"
	case KindNote:
		return "note"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one record in a test-run trace.
type Event struct {
	Seq   int
	Kind  EventKind
	VTime time.Duration // virtual time when the event occurred

	// Injection/coverage fields.
	Callee    string // retried method, e.g. "hdfs.BlockReader.connect"
	Caller    string // coordinator method observed on the stack
	Exception string // exception class thrown (injection only)
	Count     int    // how many times this triplet has thrown so far

	// Sleep fields.
	Duration time.Duration
	Stack    []string // normalized function names, innermost first

	// Note fields.
	Msg string
}

// Run is the trace of a single test execution. It also owns the run's
// virtual clock so that event virtual-timestamps and sleep accounting agree.
type Run struct {
	Test string

	mu     sync.Mutex
	events []Event
	seq    int
	vnow   time.Duration
}

// NewRun creates an empty trace for the named test.
func NewRun(test string) *Run { return &Run{Test: test} }

// Append adds an event, assigning its sequence number and virtual time.
func (r *Run) Append(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq
	r.seq++
	e.VTime = r.vnow
	r.events = append(r.events, e)
}

// AdvanceAndRecordSleep advances virtual time by d and appends a sleep
// event attributed to the given stack.
func (r *Run) AdvanceAndRecordSleep(d time.Duration, stack []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{
		Seq:      r.seq,
		Kind:     KindSleep,
		VTime:    r.vnow,
		Duration: d,
		Stack:    stack,
	}
	r.seq++
	r.vnow += d
	r.events = append(r.events, e)
}

// Advance moves virtual time forward without recording a sleep event
// (used for non-sleep time passage such as simulated work).
func (r *Run) Advance(d time.Duration) {
	r.mu.Lock()
	r.vnow += d
	r.mu.Unlock()
}

// VNow returns the current virtual time.
func (r *Run) VNow() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vnow
}

// Events returns a snapshot of the recorded events in order.
func (r *Run) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Run) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

type ctxKey struct{}

// With attaches a run to the context.
func With(ctx context.Context, r *Run) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the run attached to ctx, or nil.
func From(ctx context.Context) *Run {
	r, _ := ctx.Value(ctxKey{}).(*Run)
	return r
}

// Note appends a free-form note to the run on ctx, if any.
func Note(ctx context.Context, format string, args ...any) {
	if r := From(ctx); r != nil {
		r.Append(Event{Kind: KindNote, Msg: fmt.Sprintf(format, args...)})
	}
}

// callersBuf is the stack-buffer size Callers unwinds into; deeper
// requests (skip+max+2 beyond it) fall back to a heap slice.
const callersBuf = 48

// funcNames memoises a program counter to its normalised function name.
// runtime.Callers emits one PC per logical frame — the outer frames of an
// inlined call appear as virtual PCs — so the first frame
// runtime.CallersFrames yields for a PC depends on that PC alone, and the
// memo is exact. It holds at most one entry per call-site PC in the
// binary (a few hundred in practice), so it needs no eviction.
var funcNames sync.Map // uintptr -> string

// funcName returns the normalised name of the frame at pc, symbolising
// it on first sight only.
func funcName(pc uintptr) string {
	if v, ok := funcNames.Load(pc); ok {
		return v.(string)
	}
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	name := NormalizeFunc(f.Function)
	funcNames.Store(pc, name)
	return name
}

// Callers returns up to max normalized function names from the calling
// goroutine's stack, innermost first, skipping skip frames above the caller
// of Callers itself. Names are normalized by NormalizeFunc; frames without
// a Go function name are skipped.
func Callers(skip, max int) []string {
	var buf [callersBuf]uintptr
	var pcs []uintptr
	if want := max + skip + 2; want <= len(buf) {
		pcs = buf[:want]
	} else {
		pcs = make([]uintptr, want)
	}
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(n, max))
	for _, pc := range pcs[:n] {
		if name := funcName(pc); name != "" {
			out = append(out, name)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

// CallerFunc returns the normalized function name of the caller skip
// frames above the caller of CallerFunc (skip 0 = the immediate caller).
func CallerFunc(skip int) string {
	s := Callers(skip+1, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// NormalizeFunc converts a runtime function name such as
// "wasabi/internal/apps/hdfs.(*BlockReader).connect" into the corpus
// method-naming convention "hdfs.BlockReader.connect". Functions outside
// the corpus keep "pkg.Symbol" form (last import-path element only).
// Anonymous function suffixes (".func1") are preserved on the parent name.
func NormalizeFunc(fn string) string {
	if fn == "" {
		return ""
	}
	// Keep only the last path element: "wasabi/internal/apps/hdfs.(*T).m"
	// -> "hdfs.(*T).m".
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	// Drop pointer-receiver decoration.
	fn = strings.ReplaceAll(fn, "(*", "")
	fn = strings.ReplaceAll(fn, ")", "")
	return fn
}
