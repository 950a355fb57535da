package llm

import (
	"context"
	"errors"
	"testing"

	"wasabi/internal/errmodel"
	"wasabi/internal/obs"
)

func TestParseFaultProfilePresets(t *testing.T) {
	cases := []struct {
		spec string
		want FaultProfile
	}{
		{"", FaultProfile{}},
		{"none", FaultProfile{}},
		{"light", FaultProfile{TimeoutDenom: 60, RateLimitDenom: 60, ServerErrorDenom: 60}},
		{"heavy", FaultProfile{TimeoutDenom: 15, RateLimitDenom: 15, ServerErrorDenom: 15}},
		{"outage", FaultProfile{HardOutage: true}},
		{"timeout=10,malformed=50", FaultProfile{TimeoutDenom: 10, MalformedDenom: 50}},
		{"heavy,outage-after=120", FaultProfile{TimeoutDenom: 15, RateLimitDenom: 15, ServerErrorDenom: 15, OutageAfterFiles: 120}},
		{"outage-after=5,light", FaultProfile{TimeoutDenom: 60, RateLimitDenom: 60, ServerErrorDenom: 60, OutageAfterFiles: 5}},
		{"ratelimit=9, servererror=8", FaultProfile{RateLimitDenom: 9, ServerErrorDenom: 8}},
	}
	for _, c := range cases {
		got, err := ParseFaultProfile(c.spec)
		if err != nil {
			t.Errorf("ParseFaultProfile(%q) error: %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFaultProfile(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseFaultProfileErrors(t *testing.T) {
	for _, spec := range []string{"bogus", "timeout", "timeout=x", "timeout=-1", "wat=3"} {
		if _, err := ParseFaultProfile(spec); err == nil {
			t.Errorf("ParseFaultProfile(%q) accepted, want error", spec)
		}
	}
}

func TestFaultProfileZeroAndString(t *testing.T) {
	if !(FaultProfile{}).Zero() {
		t.Error("empty profile must report Zero")
	}
	p := FaultProfile{TimeoutDenom: 60, HardOutage: true}
	if p.Zero() {
		t.Error("non-empty profile must not report Zero")
	}
	// String round-trips through the parser.
	back, err := ParseFaultProfile(p.String())
	if err != nil || back != p {
		t.Errorf("round trip %q → %+v (err %v), want %+v", p.String(), back, err, p)
	}
}

// TestFaultyTransportDeterministic: the fault schedule is a pure function
// of (seed, path, attempt) — two transports with the same seed agree on
// every call, a different seed produces a different schedule somewhere.
func TestFaultyTransportDeterministic(t *testing.T) {
	profile := FaultProfile{TimeoutDenom: 5, RateLimitDenom: 7, ServerErrorDenom: 9, MalformedDenom: 11}
	a := NewFaultyTransport(nil, profile, 42)
	b := NewFaultyTransport(nil, profile, 42)
	c := NewFaultyTransport(nil, profile, 43)
	differs := false
	for i := 0; i < 200; i++ {
		for attempt := 0; attempt < 4; attempt++ {
			path := "pkg/file" + string(rune('a'+i%26)) + ".go"
			ka := a.faultAt(path, i, attempt)
			if kb := b.faultAt(path, i, attempt); ka != kb {
				t.Fatalf("same seed disagreed at (%s, %d): %q vs %q", path, attempt, ka, kb)
			}
			if kc := c.faultAt(path, i, attempt); ka != kc {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("different seeds produced identical 800-call schedules")
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		class string
		want  bool
	}{
		{"SocketTimeoutException", true},
		{"RateLimitedException", true},
		{"ServiceUnavailableException", true},
		{"BackendOutageException", false},
		{"MalformedCompletionException", false},
		{"NullPointerException", false},
	}
	for _, c := range cases {
		if got := IsTransient(errmodel.New(c.class, c.class)); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.class, got, c.want)
		}
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain errors must not be transient")
	}
}

// TestHardOutageEveryCallFails: under a hard outage no ordinal or attempt
// ever gets through, and the fault counter records every rejection.
func TestHardOutageEveryCallFails(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewFaultyTransport(nil, FaultProfile{HardOutage: true}, 1).Instrument(reg)
	for i := 0; i < 10; i++ {
		err := tr.Do(context.Background(), Call{Path: "x.go", Ordinal: i, Attempt: i % 3})
		if !errmodel.IsClass(err, "BackendOutageException") {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := reg.Counter("llm_transport_faults_total", "kind", FaultOutage).Value(); got != 10 {
		t.Fatalf("outage fault counter = %d, want 10", got)
	}
}

// TestOutageAfterWindow: ordinals below the threshold behave normally,
// ordinals at or above it are hard-down.
func TestOutageAfterWindow(t *testing.T) {
	tr := NewFaultyTransport(nil, FaultProfile{OutageAfterFiles: 3}, 1)
	for i := 0; i < 6; i++ {
		err := tr.Do(context.Background(), Call{Path: "y.go", Ordinal: i})
		if i < 3 && err != nil {
			t.Fatalf("ordinal %d before the window failed: %v", i, err)
		}
		if i >= 3 && !errmodel.IsClass(err, "BackendOutageException") {
			t.Fatalf("ordinal %d inside the window: %v", i, err)
		}
	}
}
