package main

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {10, 1.4},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty input: got %v, want NaN", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99.5}, {2000, 99.5}, {1000, 99}, {500, 98}, {499, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 80}, {50, 80}, {49, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The defining property: at least minBeyond samples lie beyond the
	// resolved rung whenever one qualifies.
	for n := 2 * minBeyond; n < 5000; n++ {
		p := tailPercentile(n)
		if float64(n)*(100-p)/100 < minBeyond-1e-9 {
			t.Fatalf("n=%d resolved p%v with fewer than %d samples beyond", n, p, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.Max != 100 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1e-9 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("p50 %v tail %v, want 50.5 and 90.1", s.P50, s.Tail)
	}
	if (summarize(nil) != summary{}) {
		t.Error("empty summary is not zero")
	}
}

func TestLateness(t *testing.T) {
	due := []float64{0, 10, 20, 30}
	sent := []float64{0.5, 9.9, 45, 30}
	want := []float64{0.5, 0, 25, 0}
	got := lateness(due, sent)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBacklogGrew(t *testing.T) {
	for _, c := range []struct {
		start, end float64
		slots      int
		want       bool
	}{
		{0, 0, 2, false}, {0, 2, 2, false}, {0, 2.5, 2, true}, {4, 6, 2, false}, {4, 6.1, 2, true}, {5, 0, 2, false},
	} {
		if got := backlogGrew(c.start, c.end, c.slots); got != c.want {
			t.Errorf("backlogGrew(%v, %v, %d) = %v", c.start, c.end, c.slots, got)
		}
	}
}

func TestOutstandingMean(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	jobs := []*liveJob{
		{id: "a", sentAt: at(0), doneAt: at(50)},
		{id: "b", sentAt: at(10), doneAt: at(200)},
		{id: "c", sentAt: at(120)},     // never seen done: outstanding to the window end
		{refused: true, sentAt: at(5)}, // refused: never outstanding
		{id: "d", sentAt: at(150), doneAt: at(160)},
	}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 100, 1.4},   // a 50 + b 90 over 100
		{100, 200, 1.9}, // b 100 + c 80 + d 10 over 100
		{200, 300, 1},   // c alone
		{20, 30, 2},     // a and b throughout
	} {
		if got := outstandingMean(jobs, at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("outstandingMean(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestMaxRate(t *testing.T) {
	stats := []phaseStats{{Rate: 10, MeetsLimit: true}, {Rate: 20, MeetsLimit: true}, {Rate: 30}}
	if got := maxRate(stats); got != 20 {
		t.Errorf("maxRate = %v, want 20", got)
	}
	if got := maxRate([]phaseStats{{Rate: 10}}); got != 0 {
		t.Errorf("maxRate with no passing phase = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartUS: 0, EndUS: 10000},
		{ID: 2, Parent: 1, Name: "a", StartUS: 1000, EndUS: 4000},
		{ID: 3, Parent: 1, Name: "a", StartUS: 3000, EndUS: 5000},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", StartUS: 8000, EndUS: 12000}, // runs past its parent
		{ID: 5, Parent: 2, Name: "c", StartUS: 1500, EndUS: 2500},
	}
	self := selfTimes(spans)
	// root: 10 ms minus [1,5] and [8,10] = 4 ms.
	for id, want := range map[int]float64{1: 4, 2: 2, 3: 2, 4: 4, 5: 1} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if math.Abs(by["a"]-4) > 1e-9 || math.Abs(by["root"]-4) > 1e-9 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	s := r.start(1, 0, "x")
	if s.id() != 0 || s.end() != 0 {
		t.Error("nil recorder recorded a span")
	}
}

func TestRestampKeepsSizeAndReplacesMarker(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best-effort restore
	if err := os.MkdirAll(stageRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(stageRoot, "f.go")
	orig := stamp([]byte("package x\n\nfunc f() {}"), 1)
	if err := os.WriteFile(p, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restamp(p, 18446744073709551615); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("size changed: %d -> %d", len(orig), len(got))
	}
	if want := "package x\n\nfunc f() {}\n// perfbench stamp 18446744073709551615\n"; string(got) != want {
		t.Fatalf("got %q", got)
	}
	if err := os.WriteFile(p, []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restamp(p, 2); err == nil {
		t.Error("restamp of an unstamped file succeeded")
	}
}

// TestServePhase drives a short open-loop phase against a real
// in-process server: every job must complete with a report identical
// to its reference, and the traced phase must record one submit span
// per job.
func TestServePhase(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server over a staged corpus")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best-effort restore
	st, err := setupServe(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	p := phase{name: "rate_mid", rate: 10, share: 1}
	d := 2 * time.Second
	rec := newRecorder()
	pr := runPhase(st, p, schedule(st, p, d, rand.New(rand.NewPCG(1, streamOps))), rec)
	ps := pr.stats(st, d)
	if ps.Jobs != 20 || ps.Failed != 0 || ps.Refused != 0 || len(ps.latencies) != ps.Jobs {
		t.Fatalf("phase stats %+v", ps)
	}
	edits := 0
	for _, j := range pr.jobs {
		if j.err != nil {
			t.Errorf("job %s: %v", j.id, j.err)
		}
		if j.sentAt.Before(j.dueAt) {
			t.Errorf("job %s sent before it was due", j.id)
		}
		if j.spec.edit.file.Path != "" {
			edits++
		}
	}
	if edits != ps.Jobs/editEvery {
		t.Errorf("%d edits, want %d", edits, ps.Jobs/editEvery)
	}
	if n := len(durations(rec.spans, "http.submit")); n != ps.Jobs {
		t.Errorf("%d submit spans, want %d", n, ps.Jobs)
	}
}
