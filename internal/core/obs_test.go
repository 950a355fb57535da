package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/obs"
)

// observedRun executes the full pipeline over the corpus with a fresh
// observer and returns the metrics snapshot.
func observedRun(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Obs = obs.New()
	w := New(opts)
	if _, err := w.RunCorpus(corpus.Apps()); err != nil {
		t.Fatal(err)
	}
	return opts.Obs.Reg().Snapshot()
}

// TestCountersDeterministicAcrossWorkers is the observability analogue
// of the result-determinism tests: the counters section of the metrics
// snapshot must be byte-identical at every worker count, because
// counters only ever count logical pipeline events. Gauges and
// histograms carry scheduling and wall-clock facts and are exempt.
func TestCountersDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		snap := observedRun(t, workers)
		got, err := snap.CountersJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("counters at workers=%d differ from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
	if len(want) == 0 || string(want) == "[]" {
		t.Fatal("counters section is empty — instrumentation is not firing")
	}
}

// TestObservedRunRecordsEveryLayer spot-checks that each instrumented
// layer reported into the registry: stages, pool, LLM, fault runtime and
// oracles.
func TestObservedRunRecordsEveryLayer(t *testing.T) {
	snap := observedRun(t, 2)
	apps := len(corpus.Apps())

	for _, stage := range []string{"identify", "dynamic", "static"} {
		if got := snap.Counter("core_stage_runs_total", "stage", stage); got != int64(apps) {
			t.Errorf("stage %s ran %d times, want %d", stage, got, apps)
		}
		if h, ok := snap.HistogramPoint(StageMetric, "stage", stage); !ok || h.Count != int64(apps) {
			t.Errorf("stage %s wall-time histogram: ok=%v count=%d, want %d", stage, ok, h.Count, apps)
		}
	}
	if got := snap.Counter("core_stage_runs_total", "stage", "if"); got != 1 {
		t.Errorf("if stage ran %d times, want 1", got)
	}

	checksPositive := map[string]int64{
		"core_pool_tasks_total{level=apps}": snap.Counter("core_pool_tasks_total", "level", "apps"),
		"llm_files_reviewed_total":          snap.Counter("llm_files_reviewed_total"),
		"llm_tokens_in_total":               snap.Counter("llm_tokens_in_total"),
		"oracle_evaluations_total":          snap.Counter("oracle_evaluations_total"),
	}
	for name, got := range checksPositive {
		if got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}

	// The fault runtime fires at least one injection per exception class
	// the plan arms; the corpus always injects IOException somewhere.
	if got := snap.Counter("fault_injections_total", "exception", "IOException"); got <= 0 {
		t.Errorf("no IOException injections recorded (got %d)", got)
	}

	// Stage token attribution equals the LLM client's own accounting.
	if stage, llmTotal := snap.Counter(StageTokensMetric, "stage", "identify"), snap.Counter("llm_tokens_in_total"); stage != llmTotal {
		t.Errorf("identify-stage tokens %d != llm client tokens %d", stage, llmTotal)
	}
}

// TestTraceArtifactIsWellFormed runs an observed pipeline and checks the
// emitted Chrome trace: valid JSON, a traceEvents array of only complete
// ("X") and metadata ("M") events, and the expected span hierarchy
// (corpus → app → stage → leaf) present in the args.
func TestTraceArtifactIsWellFormed(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Obs = obs.New()
	w := New(opts)
	if _, err := w.RunCorpus(corpus.Apps()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opts.Obs.Trc().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	parents := map[string]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			cats[e.Cat]++
			if e.Dur < 1 {
				t.Errorf("span %s has non-positive duration", e.Name)
			}
			parents[e.Name] = e.Args["parent"]
		case "M":
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	for _, cat := range []string{"pipeline", "app", "stage", "review", "entry"} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans in trace (got %v)", cat, cats)
		}
	}
	if got := parents["app:HD"]; got != "corpus" {
		t.Errorf("app:HD parent = %q, want corpus", got)
	}
	if got := parents["identify:HD"]; got != "app:HD" {
		t.Errorf("identify:HD parent = %q, want app:HD", got)
	}
}

// TestUnobservedRunStaysNil guards the zero-cost path: with Options.Obs
// unset the pipeline must run exactly as before and register nothing.
func TestUnobservedRunStaysNil(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	w := New(opts)
	if _, err := w.RunCorpus(corpus.Apps()); err != nil {
		t.Fatal(err)
	}
	var nilReg *obs.Registry
	if snap := nilReg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry accumulated counters")
	}
}
