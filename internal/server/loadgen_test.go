package server

import (
	"context"
	"testing"
	"time"
)

// TestRunLoadOutlivesJobEviction: the daemon keeps only the last
// TraceRing finished jobs, so RunLoad must see each job finish before
// it is evicted. With one slot and a one-deep queue, a tenant's later
// submissions wait (429) until its earlier jobs have finished, and more
// than TraceRing jobs finish before the last one is accepted; a driver
// that polled only after submitting everything would find its first job
// gone.
func TestRunLoadOutlivesJobEviction(t *testing.T) {
	const ring, tenants, jobs = 3, 2, 4
	srv := New(Config{
		Addr:           "127.0.0.1:0",
		QueueDepth:     1,
		SchedulerSlots: 1,
		TraceRing:      ring,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	sb, err := RunLoad("http://"+srv.Addr(), LoadOptions{
		Tenants: tenants, Jobs: jobs, Apps: []string{"HD"}, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sb.Completed != tenants*jobs {
		t.Fatalf("completed %d jobs, want %d", sb.Completed, tenants*jobs)
	}
	if sb.Rejections == 0 {
		t.Fatal("no submission was refused: the queue never filled, so the test did not outrun the ring")
	}
}

// TestAwaitDoneFailsOnEvictedJob: polling a job the daemon no longer
// holds is an immediate error, not a poll loop until the deadline.
func TestAwaitDoneFailsOnEvictedJob(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	err := awaitDone(ctx, "http://"+srv.Addr(), "job-404")
	if err == nil {
		t.Fatal("awaitDone on an unknown job succeeded")
	}
	if ctx.Err() != nil || time.Since(start) > 10*time.Second {
		t.Fatalf("awaitDone took %v and returned %v; want an immediate 404 error", time.Since(start), err)
	}
}
