// Package errmodel implements a Java-style exception model for the WASABI
// corpus and analyses — the substrate beneath the trigger-exception
// triplets of §3.1.2, the "different exception" oracle of §3.1.3, and the
// retry-ratio IF-bug analysis of §3.2.2.
//
// The WASABI paper studies Java systems, where errors are typed exceptions
// arranged in a class hierarchy, are declared on method signatures, and are
// frequently wrapped ("caused by" chains). Go errors are plain values, so
// this package reconstructs the three properties the toolkit depends on:
//
//   - a class hierarchy with subclass checks (IOException is-a Exception;
//     AccessControlException is-a IOException), used by retry policies in the
//     corpus and by the IF-bug ratio analysis;
//   - wrapping with cause chains (HadoopException wrapping
//     AccessControlException, as in HADOOP-16683), used by the
//     "different exception" oracle and the corpus bugs it must catch;
//   - a stable, analyzable *name* per exception class, used by the static
//     throws-analysis, the fault-injection planner, and report grouping.
package errmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"wasabi/internal/trace"
)

// Exception is a Java-style typed error. The zero value is not useful;
// construct instances with New or Wrap so the class is registered.
type Exception struct {
	// Class is the exception class name, e.g. "ConnectException".
	Class string
	// Msg is the human-readable message.
	Msg string
	// Cause is the wrapped exception, if any (Java's "caused by").
	Cause error
	// Injected marks exceptions thrown by the WASABI fault-injection
	// runtime rather than by application code. Oracles use this to
	// distinguish "test crashed with our own fault" (not a bug) from
	// "test crashed with a different exception" (potential HOW bug).
	Injected bool
	// Site is the normalized function that constructed the exception —
	// the top of the "crash stack" used by the different-exception
	// oracle to group failures into distinct bugs (§4.1).
	Site string
}

// Error implements the error interface.
func (e *Exception) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%s: %s (caused by: %s)", e.Class, e.Msg, e.Cause.Error())
	}
	if e.Msg == "" {
		return e.Class
	}
	return e.Class + ": " + e.Msg
}

// Unwrap exposes the cause chain to errors.Is/errors.As.
func (e *Exception) Unwrap() error { return e.Cause }

// New constructs an exception of the given class. Unknown classes are
// registered on first use as direct subclasses of "Exception". The
// creation site (the caller's function) is recorded for crash grouping.
func New(class, msg string) *Exception {
	return NewAt(class, trace.CallerFunc(1), msg)
}

// Newf constructs an exception with a formatted message.
func Newf(class, format string, args ...any) *Exception {
	return NewAt(class, trace.CallerFunc(1), fmt.Sprintf(format, args...))
}

// Wrap constructs an exception of the given class that wraps cause.
func Wrap(class, msg string, cause error) *Exception {
	return WrapAt(class, trace.CallerFunc(1), msg, cause)
}

// NewAt constructs an exception whose creation site is given rather
// than recovered from the stack — for constructors whose site is a
// constant (the fault injector) or is declared by an interpreter
// (generated corpora), so the walk New would make is pure cost.
func NewAt(class, site, msg string) *Exception {
	defaultHierarchy.ensure(class)
	return &Exception{Class: class, Msg: msg, Site: site}
}

// WrapAt is Wrap with an explicit creation site, as NewAt is to New.
func WrapAt(class, site, msg string, cause error) *Exception {
	defaultHierarchy.ensure(class)
	return &Exception{Class: class, Msg: msg, Cause: cause, Site: site}
}

// ClassOf returns the exception class of err, or "" if err is not an
// *Exception.
func ClassOf(err error) string {
	if e, ok := err.(*Exception); ok {
		return e.Class
	}
	return ""
}

// IsClass reports whether err is an *Exception whose class is cls or a
// subclass of cls. It does NOT follow the cause chain: like a Java catch
// block, it only looks at the outermost exception. Use CauseIsClass to
// search the chain.
func IsClass(err error, cls string) bool {
	e, ok := err.(*Exception)
	if !ok {
		return false
	}
	return defaultHierarchy.isSubclass(e.Class, cls)
}

// CauseIsClass reports whether any exception in err's cause chain
// (including err itself) is of class cls or a subclass.
func CauseIsClass(err error, cls string) bool {
	for err != nil {
		if IsClass(err, cls) {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// RootCause returns the innermost error in err's cause chain.
func RootCause(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}

// hierarchy is a registry of exception classes and their superclasses.
type hierarchy struct {
	mu     sync.RWMutex
	parent map[string]string // class -> superclass ("" for the root)
}

var defaultHierarchy = &hierarchy{parent: map[string]string{"Exception": ""}}

func (h *hierarchy) ensure(class string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.parent[class]; !ok {
		h.parent[class] = "Exception"
	}
}

func (h *hierarchy) declare(class, super string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.parent[super]; !ok {
		h.parent[super] = "Exception"
	}
	h.parent[class] = super
}

func (h *hierarchy) isSubclass(class, super string) bool {
	if class == super {
		return true
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	for c := class; c != ""; {
		p, ok := h.parent[c]
		if !ok {
			return false
		}
		if p == super {
			return true
		}
		c = p
	}
	return false
}

func (h *hierarchy) classes() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.parent))
	for c := range h.parent {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Declare registers class as a direct subclass of super. Both are created
// if missing. Redeclaring a class updates its superclass; the corpus
// declares its hierarchy once at init time.
func Declare(class, super string) {
	defaultHierarchy.declare(class, super)
}

// IsSubclass reports whether class equals super or descends from it.
func IsSubclass(class, super string) bool {
	return defaultHierarchy.isSubclass(class, super)
}

// Classes returns all registered exception class names, sorted.
func Classes() []string { return defaultHierarchy.classes() }

// Superclass returns the declared superclass of class ("" for the root or
// unknown classes).
func Superclass(class string) string {
	defaultHierarchy.mu.RLock()
	defer defaultHierarchy.mu.RUnlock()
	return defaultHierarchy.parent[class]
}

// WrapChain returns the exception classes along err's cause chain,
// outermost first. Non-Exception links appear as their error strings
// truncated to the first token.
func WrapChain(err error) []string {
	var chain []string
	for err != nil {
		if e, ok := err.(*Exception); ok {
			chain = append(chain, e.Class)
		} else {
			s := err.Error()
			if i := strings.IndexAny(s, ": "); i > 0 {
				s = s[:i]
			}
			chain = append(chain, s)
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			break
		}
		err = u.Unwrap()
	}
	return chain
}

// Standard hierarchy used across the corpus. Mirrors the Java classes that
// appear in the paper's bug examples.
func init() {
	for _, d := range [][2]string{
		{"RuntimeException", "Exception"},
		{"IOException", "Exception"},
		{"InterruptedException", "Exception"},

		// IOException family (HADOOP-16580, HADOOP-16683).
		{"AccessControlException", "IOException"},
		{"ConnectException", "IOException"},
		{"SocketException", "IOException"},
		{"SocketTimeoutException", "SocketException"},
		{"EOFException", "IOException"},
		{"FileNotFoundException", "IOException"},
		{"RemoteException", "IOException"},
		{"TimeoutException", "Exception"},

		// RuntimeException family.
		{"IllegalArgumentException", "RuntimeException"},
		{"IllegalStateException", "RuntimeException"},
		{"NullPointerException", "RuntimeException"},
		{"ConcurrentModificationException", "RuntimeException"},
		{"UnsupportedOperationException", "RuntimeException"},

		// Coordination-library exceptions (HBASE-25743).
		{"KeeperException", "Exception"},
		{"KeeperConnectionLossException", "KeeperException"},
		{"KeeperSessionExpiredException", "KeeperException"},
		{"KeeperRequestTimeoutException", "KeeperException"},

		// Application wrapper exceptions.
		{"HadoopException", "IOException"},
		{"ServiceException", "Exception"},
		{"TTransportException", "Exception"},
		{"ExitException", "RuntimeException"},

		// Queue / messaging exceptions (KAFKA-style error mapping).
		{"RetriableException", "Exception"},
		{"CoordinatorLoadInProgressException", "RetriableException"},
		{"UnknownTopicOrPartitionException", "RetriableException"},
		{"NotEnoughReplicasException", "RetriableException"},

		// Fault-injection marker class.
		{"InjectedFault", "Exception"},
	} {
		Declare(d[0], d[1])
	}
}
