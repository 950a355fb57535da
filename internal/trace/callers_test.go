package trace

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// refCallers is the unmemoised stack walk Callers replaced: symbolise the
// whole PC slice with runtime.CallersFrames on every call. It is the
// reference the memoised path must match name for name.
func refCallers(skip, max int) []string {
	pcs := make([]uintptr, max+skip+2)
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		return nil
	}
	frames := runtime.CallersFrames(pcs[:n])
	var out []string
	for {
		f, more := frames.Next()
		name := NormalizeFunc(f.Function)
		if name != "" {
			out = append(out, name)
		}
		if !more || len(out) >= max {
			break
		}
	}
	return out
}

// walkBoth takes the memoised and the reference walk from the same frame,
// skipping walkBoth itself, for every (skip, max) shape the program uses
// and a few more. The first walk is the deepest: skip 0, max 64.
//
//go:noinline
func walkBoth() (got, want [][]string) {
	for _, skip := range []int{0, 1, 2} {
		for _, max := range []int{64, 32, 8, 6, 2, 1} {
			got = append(got, Callers(skip+1, max))
			want = append(want, refCallers(skip+1, max))
		}
	}
	return got, want
}

// checkWalk fails t unless both walks agree and the deepest walk
// includes every name in mustSee.
func checkWalk(t *testing.T, got, want [][]string, mustSee ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memoised walk differs from reference:\n got  %v\n want %v", got, want)
	}
	deepest := got[0]
	joined := strings.Join(deepest, " ")
	for _, name := range mustSee {
		if !containsName(deepest, name) {
			t.Fatalf("stack %s lacks %q", joined, name)
		}
	}
}

func containsName(stack []string, name string) bool {
	for _, f := range stack {
		if f == name {
			return true
		}
	}
	return false
}

// Inlined helpers: the compiler folds these into their callers, so the
// walk sees them only as virtual PCs inside the outer function.
func inlinedOuter() (got, want [][]string) { return inlinedInner() }
func inlinedInner() (got, want [][]string) { return walkBoth() }

//go:noinline
func noinlineOuter() (got, want [][]string) { return noinlineInner() }

//go:noinline
func noinlineInner() (got, want [][]string) { return walkBoth() }

// mixedChain alternates inlined and real frames.
//
//go:noinline
func mixedChain() (got, want [][]string) { return inlinedOuter() }

type walker struct{ n int }

//go:noinline
func (w *walker) pointerWalk() (got, want [][]string) { return w.valueWalk() }

//go:noinline
func (w walker) valueWalk() (got, want [][]string) { return walkBoth() }

//go:noinline
func closureWalk() (got, want [][]string) {
	f := func() (got, want [][]string) { return walkBoth() }
	return f()
}

type holder struct{ v int }

// nilDeref faults with a nil-pointer dereference: the runtime raises the
// panic from sigpanic at the faulting PC, not from a call.
//
//go:noinline
func nilDeref(h *holder) int { return h.v }

//go:noinline
func explicitPanic() { panic("boom") }

// panicWalk runs body and walks the in-flight panic stack from the
// deferred recovery, the way testkit reads a crash site.
func panicWalk(body func()) (got, want [][]string) {
	defer func() {
		if recover() != nil {
			got, want = walkBoth()
		}
	}()
	body()
	return nil, nil
}

// stackCases are the frame shapes the differential test covers, each
// with names its deepest walk must contain.
var stackCases = []struct {
	name    string
	walk    func() (got, want [][]string)
	mustSee []string
}{
	{"inlined", inlinedOuter, []string{"trace.inlinedInner", "trace.inlinedOuter"}},
	{"noinline", noinlineOuter, []string{"trace.noinlineInner", "trace.noinlineOuter"}},
	{"mixed", mixedChain, []string{"trace.inlinedInner", "trace.inlinedOuter", "trace.mixedChain"}},
	{"pointer-receiver", (&walker{}).pointerWalk, []string{"trace.walker.valueWalk", "trace.walker.pointerWalk"}},
	{"closure", closureWalk, []string{"trace.closureWalk.func1", "trace.closureWalk"}},
	{"panic", func() (got, want [][]string) { return panicWalk(explicitPanic) },
		[]string{"runtime.gopanic", "trace.explicitPanic"}},
	{"nil-deref", func() (got, want [][]string) { return panicWalk(func() { nilDeref(nil) }) },
		[]string{"runtime.sigpanic", "trace.nilDeref"}},
}

// TestCallersMatchesReference pins the memoised walk to the reference
// on every frame shape, twice each so both the symbolising miss and the
// memo hit are compared.
func TestCallersMatchesReference(t *testing.T) {
	for _, c := range stackCases {
		t.Run(c.name, func(t *testing.T) {
			for pass := 0; pass < 2; pass++ {
				got, want := c.walk()
				checkWalk(t, got, want, c.mustSee...)
			}
		})
	}
}

// TestCallersMatchesReferenceConcurrently runs every case from 8
// goroutines at once, so memo fills race with memo hits (make race runs
// this under the race detector).
func TestCallersMatchesReferenceConcurrently(t *testing.T) {
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, c := range stackCases {
					if got, want := c.walk(); !reflect.DeepEqual(got, want) {
						errs <- c.name + ": memoised walk differs from reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCallersHonoursMax checks the max bound and that a walk deeper than
// the stack buffer still matches the reference.
func TestCallersHonoursMax(t *testing.T) {
	for _, max := range []int{0, 1, 3, callersBuf, 2 * callersBuf} {
		got, want := Callers(0, max), refCallers(0, max)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: got %v, want %v", max, got, want)
		}
		if max > 0 && len(got) > max {
			t.Errorf("max %d: %d names", max, len(got))
		}
	}
}

// callersSink keeps the benchmarked walks from being optimised away.
var callersSink []string

// BenchmarkCallers measures the fault-hook walk (skip 1, a 6-frame
// window) against the unmemoised reference.
func BenchmarkCallers(b *testing.B) {
	for _, bc := range []struct {
		name string
		walk func(skip, max int) []string
	}{{"memo", Callers}, {"reference", refCallers}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				callersSink = bc.walk(1, 6)
			}
		})
	}
}
