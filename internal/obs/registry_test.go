package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "kind", "a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("events_total", "kind", "a"); same != c {
		t.Fatal("same identity must return the same counter")
	}
	if other := r.Counter("events_total", "kind", "b"); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("level")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hp, ok := snap.HistogramPoint("lat_ms")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hp.Count != 4 || hp.Sum != 555.5 {
		t.Fatalf("histogram count/sum = %d/%v, want 4/555.5", hp.Count, hp.Sum)
	}
	want := []int64{1, 1, 1, 1} // one per bucket incl. +Inf
	for i, n := range want {
		if hp.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hp.Counts[i], n, hp.Counts)
		}
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", "1", "y", "2")
	b := r.Counter("m", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order must not create distinct instruments")
	}
	snap := r.Snapshot()
	if got := snap.Counter("m", "y", "2", "x", "1"); got != 0 {
		// counter was never incremented; presence check below
		t.Fatalf("lookup = %d, want 0", got)
	}
	if len(snap.Counters) != 1 {
		t.Fatalf("snapshot has %d counters, want 1", len(snap.Counters))
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", LatencyBuckets).Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if _, err := snap.MarshalIndent(); err != nil {
		t.Fatal(err)
	}

	var o *Observer
	o.Reg().Counter("x").Inc()
	sp := o.Trc().Start("s", "c")
	sp.Child("t", "c").End()
	sp.End()
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministicOrdering registers the same instruments in
// different orders from many goroutines and asserts the serialized
// snapshots are byte-identical — the ordering contract counters'
// cross-worker determinism rests on.
func TestSnapshotDeterministicOrdering(t *testing.T) {
	build := func(reverse bool) []byte {
		r := NewRegistry()
		names := []string{"a_total", "b_total", "c_total", "d_total"}
		apps := []string{"HD", "HB", "CA", "EL"}
		if reverse {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
		}
		var wg sync.WaitGroup
		for _, n := range names {
			for _, app := range apps {
				wg.Add(1)
				go func(n, app string) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						r.Counter(n, "app", app).Inc()
					}
					r.Histogram("h_ms", LatencyBuckets, "app", app).Observe(1)
				}(n, app)
			}
		}
		wg.Wait()
		out, err := r.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("snapshots differ across registration order")
	}
}

// TestHistogramQuantile pins the bucket-interpolation estimator the
// scheduler summaries are derived from.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 40})
	// 4 observations in (0,10], 4 in (10,20], 2 in (20,40].
	for _, v := range []float64{2, 4, 6, 8, 12, 14, 16, 18, 25, 35} {
		h.Observe(v)
	}
	hp, _ := r.Snapshot().HistogramPoint("lat")
	if got := hp.Quantile(0.5); got != 12.5 {
		t.Fatalf("p50 = %v, want 12.5 (rank 5 interpolated in (10,20])", got)
	}
	if got := hp.Quantile(0.2); got != 5 {
		t.Fatalf("p20 = %v, want 5 (rank 2 interpolated in (0,10])", got)
	}
	if got := hp.Quantile(1); got != 40 {
		t.Fatalf("p100 = %v, want the last bound", got)
	}
	// Observations beyond every bound clamp to the last finite bound.
	h.Observe(10000)
	hp, _ = r.Snapshot().HistogramPoint("lat")
	if got := hp.Quantile(0.99); got != 40 {
		t.Fatalf("p99 with +Inf mass = %v, want clamp to 40", got)
	}
	if got := (HistogramPoint{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

// TestHostileLabelValuesRoundTrip: tenant names become label values
// verbatim, so values containing the identity-string separator bytes
// ('=', ',', '{', '}') and escape-worthy bytes must survive the trip
// through Snapshot untouched — the registry stores name and labels
// beside each instrument instead of re-parsing its identity string.
func TestHostileLabelValuesRoundTrip(t *testing.T) {
	hostile := "a=b,c{d}e\"f\\g\nh"
	r := NewRegistry()
	r.Counter("jobs_total", "tenant", hostile).Add(2)
	r.Gauge("depth", "tenant", hostile).Set(3)
	r.Histogram("lat_ms", []float64{1}, "tenant", hostile).Observe(0.5)

	snap := r.Snapshot()
	if got := snap.Counter("jobs_total", "tenant", hostile); got != 2 {
		t.Fatalf("counter lookup by hostile label = %d, want 2", got)
	}
	for _, c := range snap.Counters {
		if c.Name != "jobs_total" || len(c.Labels) != 1 || c.Labels[0].Key != "tenant" || c.Labels[0].Value != hostile {
			t.Fatalf("counter point corrupted: %+v", c)
		}
	}
	for _, g := range snap.Gauges {
		if g.Name != "depth" || g.Labels[0].Value != hostile {
			t.Fatalf("gauge point corrupted: %+v", g)
		}
	}
	hp, ok := snap.HistogramPoint("lat_ms", "tenant", hostile)
	if !ok || hp.Labels[0].Value != hostile {
		t.Fatalf("histogram point corrupted: ok=%v %+v", ok, hp)
	}
}

// TestRemoveGauge: eviction deletes a gauge's identity; re-registering
// it afterwards starts fresh.
func TestRemoveGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("server_sched_queue_depth", "tenant", "acme").Set(7)
	r.Gauge("server_sched_queue_depth", "tenant", "other").Set(1)
	r.RemoveGauge("server_sched_queue_depth", "tenant", "acme")
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Labels[0].Value != "other" {
		t.Fatalf("gauges after removal = %+v, want only tenant=other", snap.Gauges)
	}
	// Labels match in any order, same as registration.
	r.Gauge("g2", "a", "1", "b", "2").Set(5)
	r.RemoveGauge("g2", "b", "2", "a", "1")
	if n := len(r.Snapshot().Gauges); n != 1 {
		t.Fatalf("canonical-order removal missed: %d gauges", n)
	}
	// A re-created gauge is a fresh instrument.
	if v := r.Gauge("server_sched_queue_depth", "tenant", "acme").Value(); v != 0 {
		t.Fatalf("re-created gauge = %v, want 0", v)
	}
	// Nil registry and absent identities are no-ops.
	(*Registry)(nil).RemoveGauge("x")
	r.RemoveGauge("never_registered")
}

// TestSnapshotAddGauge: derived gauges insert in canonical identity
// order, so post-processed snapshots stay deterministic.
func TestSnapshotAddGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("m_a").Set(1)
	r.Gauge("m_z").Set(2)
	snap := r.Snapshot()
	snap.AddGauge("m_q_quantile", 3.5, "q", "0.50")
	snap.AddGauge("m_b", 4)
	var names []string
	for _, g := range snap.Gauges {
		names = append(names, g.Labels.id(g.Name))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("gauges out of order after AddGauge: %v", names)
		}
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteText(&buf1, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("exposition of an augmented snapshot is not deterministic")
	}
}

// TestFoldCounter: retire-and-fold as one registry operation — the
// source vanishes, the destination grows by its value, and edge cases
// (absent source, zero source, nil registry) stay quiet.
func TestFoldCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("server_sched_jobs_total", "tenant", "acme").Add(5)
	r.Counter("server_sched_jobs_total", "tenant", "other").Add(2)
	if v := r.FoldCounter("server_sched_jobs_total", []string{"tenant", "acme"}, []string{"tenant", "_retired"}); v != 5 {
		t.Fatalf("FoldCounter = %d, want 5", v)
	}
	snap := r.Snapshot()
	if got := snap.Counter("server_sched_jobs_total", "tenant", "_retired"); got != 5 {
		t.Fatalf("_retired after fold = %d, want 5", got)
	}
	for _, c := range snap.Counters {
		if c.Labels[0].Value == "acme" {
			t.Fatalf("source series survived the fold: %+v", c)
		}
	}
	// Folding again into the same destination accumulates.
	r.Counter("server_sched_jobs_total", "tenant", "acme").Add(3)
	r.FoldCounter("server_sched_jobs_total", []string{"tenant", "acme"}, []string{"tenant", "_retired"})
	if got := r.Snapshot().Counter("server_sched_jobs_total", "tenant", "_retired"); got != 8 {
		t.Fatalf("_retired after second fold = %d, want 8", got)
	}
	// A zero-valued source is removed without creating the destination.
	r2 := NewRegistry()
	r2.Counter("x", "tenant", "idle")
	if v := r2.FoldCounter("x", []string{"tenant", "idle"}, []string{"tenant", "_retired"}); v != 0 {
		t.Fatalf("zero-source fold = %d, want 0", v)
	}
	if n := len(r2.Snapshot().Counters); n != 0 {
		t.Fatalf("counters after zero-source fold = %d, want 0", n)
	}
	// Absent source and nil registry report 0 and touch nothing.
	if v := r.FoldCounter("never_registered", []string{"tenant", "a"}, []string{"tenant", "b"}); v != 0 {
		t.Fatalf("absent fold = %d, want 0", v)
	}
	if v := (*Registry)(nil).FoldCounter("x", nil, nil); v != 0 {
		t.Fatalf("nil fold = %d, want 0", v)
	}
}

// TestFoldCounterAtomicUnderScrape: the fold happens under one lock
// acquisition, so a concurrent scrape can never observe the family sum
// dipping — the "sums never go backwards" invariant, proven under -race.
func TestFoldCounterAtomicUnderScrape(t *testing.T) {
	r := NewRegistry()
	const tenants, per = 8, 3
	for i := 0; i < tenants; i++ {
		r.Counter("server_sched_jobs_total", "tenant", string(rune('a'+i))).Add(per)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < tenants; i++ {
			r.FoldCounter("server_sched_jobs_total",
				[]string{"tenant", string(rune('a' + i))},
				[]string{"tenant", "_retired"})
		}
	}()
	for {
		sum := int64(0)
		for _, c := range r.Snapshot().Counters {
			sum += c.Value
		}
		if sum != tenants*per {
			t.Fatalf("family sum mid-fold = %d, want invariant %d", sum, tenants*per)
		}
		select {
		case <-done:
			sum = 0
			for _, c := range r.Snapshot().Counters {
				sum += c.Value
			}
			if sum != tenants*per {
				t.Fatalf("family sum after folds = %d, want %d", sum, tenants*per)
			}
			return
		default:
		}
	}
}

// TestRemoveHistogram: retired distributions are dropped outright (no
// meaningful fold), and removal honors canonical label identity.
func TestRemoveHistogram(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 10}
	r.Histogram("server_tenant_job_ms", bounds, "tenant", "acme").Observe(3)
	r.Histogram("server_tenant_job_ms", bounds, "tenant", "other").Observe(4)
	r.RemoveHistogram("server_tenant_job_ms", "tenant", "acme")
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Labels[0].Value != "other" {
		t.Fatalf("hists after removal = %+v, want only tenant=other", snap.Histograms)
	}
	// Nil registry and absent identities are no-ops.
	(*Registry)(nil).RemoveHistogram("x")
	r.RemoveHistogram("never_registered")
	// A re-created histogram starts empty.
	r.Histogram("server_tenant_job_ms", bounds, "tenant", "acme").Observe(1)
	for _, h := range r.Snapshot().Histograms {
		if h.Labels[0].Value == "acme" && h.Count != 1 {
			t.Fatalf("re-created histogram count = %d, want 1 (fresh instrument)", h.Count)
		}
	}
}
