package llm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/source"
)

// snapshotFile writes src as name into a fresh temporary directory and
// loads it through a new source.Store, the only way bytes reach a review.
func snapshotFile(t testing.TB, name string, src []byte) *source.File {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
		t.Fatal(err)
	}
	return loadFile(t, dir, name)
}

// hdfsFile loads one HDFS corpus source file through a fresh store.
func hdfsFile(t testing.TB, base string) *source.File {
	t.Helper()
	app, err := corpus.ByCode("HD")
	if err != nil {
		t.Fatal(err)
	}
	return loadFile(t, app.Dir, base)
}

// loadFile loads dir through a new source.Store and returns its file
// called name.
func loadFile(t testing.TB, dir, name string) *source.File {
	t.Helper()
	snap, err := source.NewStore(nil).Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap.Files {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("%s not loaded from %s", name, dir)
	return nil
}

func reviewHDFSFile(t *testing.T, base string) FileReview {
	t.Helper()
	return NewClient(DefaultConfig()).ReviewSnapshotAt(hdfsFile(t, base), -1, 0)
}

func findingFor(rev FileReview, coordinator string) *Finding {
	for i := range rev.Findings {
		if rev.Findings[i].Coordinator == coordinator {
			return &rev.Findings[i]
		}
	}
	return nil
}

func TestIdentifiesLoopRetryInWebFS(t *testing.T) {
	rev := reviewHDFSFile(t, "webfs.go")
	if !rev.PerformsRetry {
		t.Fatal("webfs.go performs retry")
	}
	f := findingFor(rev, "hdfs.WebFS.Fetch")
	if f == nil {
		t.Fatalf("Fetch not identified; findings = %+v", rev.Findings)
	}
	if !f.SleepsBeforeRetry || !f.HasCap {
		t.Errorf("Fetch should have cap and delay: %+v", f)
	}
	if f.Mechanism != "loop" {
		t.Errorf("mechanism = %q", f.Mechanism)
	}
}

func TestIdentifiesNonKeywordedLoop(t *testing.T) {
	// FetchChecksummed has no retry-named identifiers — the structural
	// analysis misses it — but its comments say "re-attempting", which
	// the fuzzy reader catches.
	rev := reviewHDFSFile(t, "blockreader.go")
	f := findingFor(rev, "hdfs.BlockFetcher.FetchChecksummed")
	if f == nil {
		t.Fatalf("FetchChecksummed not identified; findings = %+v", rev.Findings)
	}
	if f.SleepsBeforeRetry {
		t.Error("FetchChecksummed has no delay; Q2 should be No")
	}
	if !f.HasCap {
		t.Error("FetchChecksummed is capped; Q3 should be Yes")
	}
}

func TestIdentifiesQueueRetry(t *testing.T) {
	rev := reviewHDFSFile(t, "mover.go")
	f := findingFor(rev, "hdfs.Balancer.processTask")
	if f == nil {
		t.Fatalf("processTask not identified; findings = %+v", rev.Findings)
	}
	if f.Mechanism != "queue" {
		t.Errorf("mechanism = %q, want queue", f.Mechanism)
	}
}

func TestIdentifiesStateMachineRetry(t *testing.T) {
	rev := reviewHDFSFile(t, "procedures.go")
	f := findingFor(rev, "hdfs.RegistrationProc.Step")
	if f == nil {
		t.Fatalf("RegistrationProc.Step not identified; findings = %+v", rev.Findings)
	}
	if f.Mechanism != "statemachine" {
		t.Errorf("mechanism = %q, want statemachine", f.Mechanism)
	}
	if f.SleepsBeforeRetry {
		t.Error("RegistrationProc has no delay; Q2 should be No")
	}
}

func TestWhenBugReportsFromHDFS(t *testing.T) {
	c := NewClient(DefaultConfig())
	kinds := map[string]string{}
	for _, base := range []string{"webfs.go", "blockreader.go", "datastreamer.go", "mover.go", "editlog.go", "namenode.go", "procedures.go", "background.go"} {
		rev := c.ReviewSnapshotAt(hdfsFile(t, base), -1, 0)
		for _, r := range DetectWhenBugs(rev) {
			kinds[r.Coordinator+"/"+r.Kind] = base
		}
	}
	for _, want := range []string{
		"hdfs.EditLogTailer.CatchUp/missing-cap",
		"hdfs.DataStreamer.SetupPipeline/missing-delay",
		"hdfs.LeaseRenewer.Renew/missing-delay",
		"hdfs.RegistrationProc.Step/missing-delay",
	} {
		if _, ok := kinds[want]; !ok {
			t.Errorf("expected WHEN report %s; got %v", want, kinds)
		}
	}
	for k := range kinds {
		if strings.HasPrefix(k, "hdfs.WebFS.Fetch/") || strings.HasPrefix(k, "hdfs.NamenodeRPC.Call/") {
			t.Errorf("correct structure misreported: %s", k)
		}
	}
}

func TestLargeFileDefeatsComprehension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LargeFileThreshold = 10
	c := NewClient(cfg)
	rev := c.ReviewSnapshotAt(snapshotFile(t, "big.go", []byte("package big\n// retry retry retry\n")), -1, 0)
	if !rev.TruncatedContext {
		t.Error("expected truncated-context failure mode")
	}
	if rev.PerformsRetry {
		t.Error("large files must defeat retry identification")
	}
}

func TestUsageAccounting(t *testing.T) {
	c := NewClient(DefaultConfig())
	c.ReviewSnapshotAt(hdfsFile(t, "webfs.go"), -1, 0)
	u := c.Usage()
	if u.Calls < 2 {
		t.Errorf("calls = %d, want Q1 plus follow-ups", u.Calls)
	}
	if u.TokensIn == 0 || u.CostUSD <= 0 {
		t.Errorf("usage = %+v", u)
	}
	c.ResetUsage()
	if u2 := c.Usage(); u2.Calls != 0 || u2.TokensIn != 0 {
		t.Errorf("reset failed: %+v", u2)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewClient(DefaultConfig()).ReviewSnapshotAt(hdfsFile(t, "namenode.go"), -1, 0)
	b := NewClient(DefaultConfig()).ReviewSnapshotAt(hdfsFile(t, "namenode.go"), -1, 0)
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("non-deterministic finding count: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if a.Findings[i] != b.Findings[i] {
			t.Errorf("finding %d differs: %+v vs %+v", i, a.Findings[i], b.Findings[i])
		}
	}
}

func TestBackgroundFileMostlyClean(t *testing.T) {
	rev := reviewHDFSFile(t, "background.go")
	for _, f := range rev.Findings {
		// Any finding here is a hallucination-mode FP; it must at least
		// be rare and deterministic. HDFS's background file should not
		// produce more than one.
		t.Logf("background finding (expected to be rare): %+v", f)
	}
	if len(rev.Findings) > 1 {
		t.Errorf("too many FPs in background.go: %+v", rev.Findings)
	}
}

func TestUnparseableFile(t *testing.T) {
	c := NewClient(DefaultConfig())
	rev := c.ReviewSnapshotAt(snapshotFile(t, "broken.go", []byte("not go at all {{{")), -1, 0)
	if rev.PerformsRetry {
		t.Error("unparseable files should answer No")
	}
}
