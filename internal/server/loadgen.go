// loadgen.go is the scheduler's load driver: many simulated tenants
// hammering POST /v1/analyze over real HTTP, each riding the documented
// backpressure contract (429 → honor Retry-After → resubmit) until every
// job completes. cmd/loadgen wraps it as a CLI (§4.3's cost accounting,
// extended to service throughput); the repository benchmark of record
// is perfbench (perfbench/README.md).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wasabi/internal/obs"
)

// LoadOptions shapes one load run.
type LoadOptions struct {
	// Tenants is how many simulated tenants submit (default 8); tenant i
	// submits as "tenant-i".
	Tenants int
	// Jobs is how many jobs each tenant submits (default 2).
	Jobs int
	// Apps is the corpus subset every job analyzes (short codes; empty =
	// full corpus).
	Apps []string
	// Timeout bounds the whole run (default 5m).
	Timeout time.Duration
}

// LoadResult is one load run: Tenants simulated tenants each submit
// Jobs jobs against a wasabid instance running Slots worker slots, and
// the driver waits for every job to complete. Wall time, throughput and
// the latency quantiles are honest measurements (they vary run to run);
// Completed and Rejections are exact client-side counts. The quantiles
// come from the server's own server_sched_job_wait_ms /
// server_sched_job_run_ms histograms and are zero when the driver
// targets a remote daemon whose registry it cannot read.
type LoadResult struct {
	Tenants    int     `json:"tenants"`
	Jobs       int     `json:"jobs_per_tenant"`
	Slots      int     `json:"slots"`
	Completed  int64   `json:"completed"`
	Rejections int64   `json:"rejections_429"`
	WallMS     float64 `json:"wall_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	WaitP50MS  float64 `json:"wait_p50_ms"`
	WaitP99MS  float64 `json:"wait_p99_ms"`
	RunP50MS   float64 `json:"run_p50_ms"`
	RunP99MS   float64 `json:"run_p99_ms"`
	// MaxBusySlots is the high-water mark of concurrently busy slots
	// (server_sched_slots_busy_max) — proof the load actually overlapped.
	MaxBusySlots float64 `json:"max_busy_slots"`
}

// RunLoad drives base (a wasabid address, "http://host:port") with
// Tenants×Jobs analysis jobs and waits for all of them to complete.
// Submissions that hit per-tenant backpressure honor Retry-After and
// resubmit; the returned result counts them in Rejections. The Slots,
// latency-quantile and busy-slot fields are left zero — when the
// caller owns the server's registry, AttachSchedStats fills them.
func RunLoad(base string, opt LoadOptions) (*LoadResult, error) {
	if opt.Tenants <= 0 {
		opt.Tenants = 8
	}
	if opt.Jobs <= 0 {
		opt.Jobs = 2
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), opt.Timeout)
	defer cancel()

	body, err := json.Marshal(map[string]any{"apps": opt.Apps})
	if err != nil {
		return nil, err
	}

	// The first failure cancels the run, so the other tenants stop
	// instead of waiting out the timeout.
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}

	var rejections atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opt.Tenants; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < opt.Jobs; n++ {
				id, err := submitUntilAccepted(ctx, base, tenant, body, &rejections)
				if err != nil {
					fail(fmt.Errorf("%s job %d: %w", tenant, n, err))
					return
				}
				// Poll each job from the moment it is accepted, while the
				// tenant keeps submitting: the daemon keeps only the last
				// -trace-ring finished jobs, so a job first polled after
				// the rest were submitted could already be gone.
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := awaitDone(ctx, base, id); err != nil {
						fail(fmt.Errorf("%s %s: %w", tenant, id, err))
					}
				}()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	completed := int64(opt.Tenants) * int64(opt.Jobs)
	return &LoadResult{
		Tenants:    opt.Tenants,
		Jobs:       opt.Jobs,
		Completed:  completed,
		Rejections: rejections.Load(),
		WallMS:     float64(wall) / float64(time.Millisecond),
		JobsPerSec: float64(completed) / wall.Seconds(),
	}, nil
}

// AttachSchedStats fills the result fields only the server side knows —
// slot count, busy high-water mark, and the wait/run latency quantiles —
// from the server's own registry snapshot.
func AttachSchedStats(sb *LoadResult, snap obs.Snapshot) {
	for _, g := range snap.Gauges {
		switch g.Name {
		case "server_sched_slots":
			sb.Slots = int(g.Value)
		case "server_sched_slots_busy_max":
			sb.MaxBusySlots = g.Value
		}
	}
	if h, ok := snap.HistogramPoint("server_sched_job_wait_ms"); ok {
		sb.WaitP50MS, sb.WaitP99MS = h.Quantile(0.5), h.Quantile(0.99)
	}
	if h, ok := snap.HistogramPoint("server_sched_job_run_ms"); ok {
		sb.RunP50MS, sb.RunP99MS = h.Quantile(0.5), h.Quantile(0.99)
	}
}

// submitUntilAccepted posts one analyze request, resubmitting on 429
// after the advertised Retry-After (counted), until accepted or ctx
// expires.
func submitUntilAccepted(ctx context.Context, base, tenant string, appsBody []byte, rejections *atomic.Int64) (string, error) {
	var req struct {
		Apps   []string `json:"apps"`
		Tenant string   `json:"tenant"`
	}
	if err := json.Unmarshal(appsBody, &req); err != nil {
		return "", err
	}
	req.Tenant = tenant
	payload, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	for {
		hr, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/analyze", bytes.NewReader(payload))
		if err != nil {
			return "", err
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &v); err != nil {
				return "", err
			}
			return v.ID, nil
		case http.StatusTooManyRequests:
			rejections.Add(1)
			delay := 25 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				// The server advertises whole seconds; cap the honor at
				// 250ms so the driver saturates rather than idles.
				delay = min(time.Duration(ra)*time.Second, 250*time.Millisecond)
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return "", ctx.Err()
			}
		default:
			return "", fmt.Errorf("analyze: status %d: %s", resp.StatusCode, data)
		}
	}
}

// awaitDone polls a job until it reports done; failed, or any status
// but 200, is an error.
func awaitDone(ctx context.Context, base, id string) error {
	for {
		hr, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			// A 404 here means the job finished and left the daemon's
			// -trace-ring window before this poll saw it.
			return fmt.Errorf("poll: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		switch v.State {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("job failed: %s", v.Error)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
