package errmodel

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSetsClassAndMessage(t *testing.T) {
	e := New("ConnectException", "connection refused")
	if e.Class != "ConnectException" {
		t.Errorf("Class = %q, want ConnectException", e.Class)
	}
	if got := e.Error(); got != "ConnectException: connection refused" {
		t.Errorf("Error() = %q", got)
	}
}

func TestNewEmptyMessage(t *testing.T) {
	e := New("TimeoutException", "")
	if got := e.Error(); got != "TimeoutException" {
		t.Errorf("Error() = %q, want bare class name", got)
	}
}

func TestNewfFormatsMessage(t *testing.T) {
	e := Newf("SocketException", "port %d", 8020)
	if e.Msg != "port 8020" {
		t.Errorf("Msg = %q", e.Msg)
	}
}

func TestIsClassExactMatch(t *testing.T) {
	e := New("ConnectException", "x")
	if !IsClass(e, "ConnectException") {
		t.Error("exception should match its own class")
	}
}

func TestIsClassSubclass(t *testing.T) {
	// ConnectException -> IOException -> Exception
	e := New("ConnectException", "x")
	if !IsClass(e, "IOException") {
		t.Error("ConnectException should be an IOException")
	}
	if !IsClass(e, "Exception") {
		t.Error("ConnectException should be an Exception")
	}
}

func TestIsClassRejectsSibling(t *testing.T) {
	e := New("ConnectException", "x")
	if IsClass(e, "RuntimeException") {
		t.Error("ConnectException should not be a RuntimeException")
	}
	if IsClass(e, "AccessControlException") {
		t.Error("superclass should not match subclass")
	}
}

func TestIsClassNonException(t *testing.T) {
	if IsClass(errors.New("plain"), "Exception") {
		t.Error("plain error must not match any class")
	}
}

func TestIsClassDoesNotUnwrap(t *testing.T) {
	inner := New("AccessControlException", "denied")
	outer := Wrap("HadoopException", "rpc failed", inner)
	if IsClass(outer, "AccessControlException") {
		t.Error("IsClass must behave like a catch block: outermost class only")
	}
	if !CauseIsClass(outer, "AccessControlException") {
		t.Error("CauseIsClass must search the wrap chain")
	}
}

func TestRootCause(t *testing.T) {
	inner := New("SocketTimeoutException", "t/o")
	mid := Wrap("RemoteException", "remote", inner)
	outer := Wrap("ServiceException", "svc", mid)
	if got := RootCause(outer); got != inner {
		t.Errorf("RootCause = %v, want innermost", got)
	}
}

func TestRootCauseNoWrap(t *testing.T) {
	e := New("EOFException", "eof")
	if RootCause(e) != e {
		t.Error("unwrapped exception is its own root cause")
	}
}

func TestWrapChain(t *testing.T) {
	inner := New("AccessControlException", "denied")
	outer := Wrap("HadoopException", "wrapped", inner)
	chain := WrapChain(outer)
	if len(chain) != 2 || chain[0] != "HadoopException" || chain[1] != "AccessControlException" {
		t.Errorf("WrapChain = %v", chain)
	}
}

func TestErrorsIsThroughCauseChain(t *testing.T) {
	inner := New("KeeperRequestTimeoutException", "zk")
	outer := Wrap("ServiceException", "svc", inner)
	if !errors.Is(outer, inner) {
		t.Error("errors.Is should follow Unwrap to the cause")
	}
}

func TestDeclareNewBranch(t *testing.T) {
	Declare("CorruptBlockException", "IOException")
	e := New("CorruptBlockException", "bad block")
	if !IsClass(e, "IOException") {
		t.Error("declared subclass relation not honored")
	}
}

func TestUnknownClassDefaultsToException(t *testing.T) {
	e := New("TotallyNovelException", "x")
	if !IsClass(e, "Exception") {
		t.Error("unknown classes must default to subclasses of Exception")
	}
}

func TestClassOf(t *testing.T) {
	if got := ClassOf(New("EOFException", "")); got != "EOFException" {
		t.Errorf("ClassOf = %q", got)
	}
	if got := ClassOf(errors.New("x")); got != "" {
		t.Errorf("ClassOf(plain) = %q, want empty", got)
	}
}

func TestSuperclass(t *testing.T) {
	if got := Superclass("SocketTimeoutException"); got != "SocketException" {
		t.Errorf("Superclass = %q", got)
	}
	if got := Superclass("Exception"); got != "" {
		t.Errorf("Superclass(root) = %q, want empty", got)
	}
}

func TestClassesSortedAndContainsStandard(t *testing.T) {
	cs := Classes()
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("Classes() not strictly sorted at %d: %q >= %q", i, cs[i-1], cs[i])
		}
	}
	want := map[string]bool{"IOException": true, "InjectedFault": true, "KeeperException": true}
	for _, c := range cs {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("standard classes missing: %v", want)
	}
}

// Property: IsSubclass is reflexive and transitive up the declared chain.
func TestIsSubclassReflexiveProperty(t *testing.T) {
	f := func(i uint8) bool {
		cs := Classes()
		c := cs[int(i)%len(cs)]
		return IsSubclass(c, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every registered class is a subclass of the root.
func TestEverythingDescendsFromException(t *testing.T) {
	for _, c := range Classes() {
		if !IsSubclass(c, "Exception") && c != "Exception" {
			t.Errorf("%s does not descend from Exception", c)
		}
	}
}

// Property: wrap preserves the cause and extends the chain by exactly one.
func TestWrapChainLengthProperty(t *testing.T) {
	f := func(depth uint8) bool {
		n := int(depth%6) + 1
		err := error(New("EOFException", "leaf"))
		for i := 1; i < n; i++ {
			err = Wrap("ServiceException", "layer", err)
		}
		return len(WrapChain(err)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapChainStopsAtPlainError(t *testing.T) {
	e := Wrap("ServiceException", "svc", errors.New("plain failure"))
	chain := WrapChain(e)
	if len(chain) != 2 {
		t.Fatalf("chain = %v", chain)
	}
	if strings.Contains(chain[1], " ") {
		t.Errorf("plain error should be truncated to first token: %q", chain[1])
	}
}

func TestExplicitSiteConstructors(t *testing.T) {
	const here = "errmodel.TestExplicitSiteConstructors"
	cause := New("AccessControlException", "denied")
	for name, e := range map[string]*Exception{
		"New":  cause,
		"Newf": Newf("SocketException", "port %d", 1),
		"Wrap": Wrap("HadoopException", "wrapped", cause),
	} {
		if e.Site != here {
			t.Errorf("%s Site = %q, want the calling function %s", name, e.Site, here)
		}
	}
	e := NewAt("ZoneSyncException", "gen001.Syncer.Run", "out of sync")
	if e.Site != "gen001.Syncer.Run" || e.Class != "ZoneSyncException" || e.Msg != "out of sync" {
		t.Errorf("NewAt = %+v", e)
	}
	if !IsClass(e, "Exception") {
		t.Error("NewAt must register the class")
	}
	w := WrapAt("HadoopException", "gen001.Syncer.Run", "giving up", cause)
	if w.Site != "gen001.Syncer.Run" || w.Cause != cause || !CauseIsClass(w, "AccessControlException") {
		t.Errorf("WrapAt = %+v", w)
	}
}
