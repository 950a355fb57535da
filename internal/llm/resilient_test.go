package llm

import (
	"fmt"
	"testing"
	"time"

	"wasabi/internal/obs"
)

// faultsCounted sums llm_transport_faults_total over every fault kind.
func faultsCounted(reg *obs.Registry) int64 {
	var n int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "llm_transport_faults_total" {
			n += c.Value
		}
	}
	return n
}

// TestFaultProfileDegradationReasons drives a fault-profile client over a
// few in-memory files and reaches every degradation reason through the
// admission loop. A transient reason must have called the transport once
// per attempt: faults counted == Retries+1 per review.
func TestFaultProfileDegradationReasons(t *testing.T) {
	cases := []struct {
		name        string
		profile     FaultProfile
		res         ResilienceConfig
		reason      string // of the last review
		retries     int    // of the last review
		transient   bool
		degradedAll int // reviews degraded with reason
	}{
		{
			name:    "retries-exhausted",
			profile: FaultProfile{TimeoutDenom: 1},
			res:     ResilienceConfig{MaxAttempts: 2},
			reason:  DegradedRetries, retries: 1, transient: true, degradedAll: 3,
		},
		{
			// Capacity 0 would take the default; a negative capacity is
			// an empty bucket.
			name:    "budget-exhausted",
			profile: FaultProfile{TimeoutDenom: 1},
			res:     ResilienceConfig{BudgetCapacity: -1, BudgetRefillEvery: -1},
			reason:  DegradedBudget, retries: 0, transient: true, degradedAll: 3,
		},
		{
			name:    "malformed",
			profile: FaultProfile{MalformedDenom: 1},
			reason:  DegradedMalformed, retries: 0, degradedAll: 3,
		},
		{
			name:    "outage",
			profile: FaultProfile{HardOutage: true},
			res:     ResilienceConfig{BreakerThreshold: 10},
			reason:  DegradedOutage, retries: 0, degradedAll: 3,
		},
		{
			// The first review's outage opens a threshold-1 breaker; the
			// rest are skipped inside the cooldown without a delivery.
			name:    "breaker-open",
			profile: FaultProfile{HardOutage: true},
			res:     ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: time.Hour},
			reason:  DegradedBreakerOpen, retries: 0, degradedAll: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Fault = &tc.profile
			cfg.Resilience = tc.res
			reg := obs.NewRegistry()
			c := NewClient(cfg).Instrument(reg)
			var rev FileReview
			attempts := 0
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("f%d.go", i)
				rev = c.ReviewSnapshotAt(snapshotFile(t, name, []byte("package mem\n")), -1, i)
				if !rev.Degraded {
					t.Fatalf("%s: review not degraded: %+v", name, rev)
				}
				attempts += rev.Retries + 1
			}
			if rev.DegradedReason != tc.reason || rev.Retries != tc.retries {
				t.Errorf("last review: reason %q retries %d, want %q and %d", rev.DegradedReason, rev.Retries, tc.reason, tc.retries)
			}
			if got := reg.Counter("llm_degraded_reviews_total", "reason", tc.reason).Value(); got != int64(tc.degradedAll) {
				t.Errorf("degraded %q reviews = %d, want %d", tc.reason, got, tc.degradedAll)
			}
			if got := reg.Counter("llm_transport_retries_total").Value(); got != int64(3*tc.retries) {
				t.Errorf("retries counted = %d, want %d", got, 3*tc.retries)
			}
			if tc.transient {
				if got := faultsCounted(reg); got != int64(attempts) {
					t.Errorf("faults counted = %d, want Retries+1 summed over reviews = %d", got, attempts)
				}
			}
			if tc.reason == DegradedBudget {
				if got := reg.Counter("llm_retry_budget_exhausted_total").Value(); got != 3 {
					t.Errorf("budget-exhausted counter = %d, want 3", got)
				}
			}
		})
	}
}
