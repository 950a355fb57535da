package core_test

// cache_test.go exercises the pipeline against the content-addressed
// cache (internal/cache): a warm run over an unchanged corpus must
// produce the byte-identical canonical report while spending zero fresh
// LLM tokens, and touching one source file must re-review exactly that
// file. The test lives in package core_test because it asserts on the
// canonical JSON document, and internal/report imports internal/core.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// copyApp clones the app's source directory into a temp dir so the test
// can edit files without touching the real corpus. Suite and Manifest
// carry over unchanged — they are code, not files.
func copyApp(t *testing.T, code string) corpus.App {
	t.Helper()
	app, err := corpus.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(app.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	app.Dir = dir
	return app
}

// runOnce executes a single-app corpus run against the shared cache and
// returns the canonical report bytes and the run's fresh LLM usage. Each
// run gets its own observer so llm_tokens_in_total is per-run.
func runOnce(t *testing.T, app corpus.App, ca *cache.Cache, workers int) ([]byte, llm.Usage, obs.Snapshot) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.Cache = ca
	opts.Obs = obs.New()
	w := core.New(opts)
	cr, err := w.RunCorpus([]corpus.App{app})
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.Marshal(report.Build(cr))
	if err != nil {
		t.Fatal(err)
	}
	return data, w.LLMUsage(), opts.Obs.Reg().Snapshot()
}

// delta subtracts two cache stats snapshots field-wise.
func delta(after, before cache.Stats) cache.Stats {
	d := cache.Stats{Hits: map[string]int64{}, Misses: map[string]int64{}}
	for k, v := range after.Hits {
		d.Hits[k] = v - before.Hits[k]
	}
	for k, v := range after.Misses {
		d.Misses[k] = v - before.Misses[k]
	}
	d.Evictions = after.Evictions - before.Evictions
	d.DiskLoads = after.DiskLoads - before.DiskLoads
	return d
}

// appManifest derives dir's manifest through a fresh snapshot store.
func appManifest(t *testing.T, dir string) *cache.DirManifest {
	t.Helper()
	snap, err := source.NewStore(nil).Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cache.FromSnapshot(snap)
}

// TestWarmRunByteIdenticalZeroSpend is the cache's core contract, pinned
// across worker counts: cold run populates, warm run replays — same
// bytes out, zero fresh tokens in — and a single-file edit invalidates
// exactly that file's review.
func TestWarmRunByteIdenticalZeroSpend(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			app := copyApp(t, "HD")
			man := appManifest(t, app.Dir)
			nFiles := int64(len(man.Files))
			if nFiles == 0 {
				t.Fatal("copied app has no source files")
			}

			ca, err := cache.New(cache.Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Cold: every review and the analysis miss, then populate.
			cold, coldFresh, _ := runOnce(t, app, ca, workers)
			if coldFresh.TokensIn == 0 || coldFresh.Calls == 0 {
				t.Fatal("cold run spent nothing; cache cannot have been exercised")
			}
			st0 := ca.Stats()
			if st0.Hits[cache.StageReview] != 0 || st0.Misses[cache.StageReview] != nFiles {
				t.Fatalf("cold review hits/misses = %d/%d, want 0/%d",
					st0.Hits[cache.StageReview], st0.Misses[cache.StageReview], nFiles)
			}
			if st0.Misses[cache.StageAnalysis] != 1 {
				t.Fatalf("cold analysis misses = %d, want 1", st0.Misses[cache.StageAnalysis])
			}

			// Warm: byte-identical report, zero fresh spend, all hits.
			warm, warmFresh, snap := runOnce(t, app, ca, workers)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm report differs from cold:\ncold %d bytes, warm %d bytes", len(cold), len(warm))
			}
			if warmFresh != (llm.Usage{}) {
				t.Fatalf("warm run spent fresh LLM traffic: %+v", warmFresh)
			}
			if got := snap.Counter("llm_tokens_in_total"); got != 0 {
				t.Fatalf("warm llm_tokens_in_total = %d, want 0", got)
			}
			d := delta(ca.Stats(), st0)
			if d.Hits[cache.StageReview] != nFiles || d.Misses[cache.StageReview] != 0 {
				t.Fatalf("warm review hits/misses = %d/%d, want %d/0",
					d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles)
			}
			if d.Hits[cache.StageAnalysis] != 1 || d.Misses[cache.StageAnalysis] != 0 {
				t.Fatalf("warm analysis hits/misses = %d/%d, want 1/0",
					d.Hits[cache.StageAnalysis], d.Misses[cache.StageAnalysis])
			}
			if d.Evictions != 0 {
				t.Fatalf("warm run evicted %d entries", d.Evictions)
			}

			// Touch one file: exactly one review re-runs; the directory
			// manifest moved, so the static analysis re-runs too.
			names := make([]string, 0, len(man.Files))
			for name := range man.Files {
				names = append(names, name)
			}
			sort.Strings(names)
			touched := filepath.Join(app.Dir, names[0])
			src, err := os.ReadFile(touched)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(touched, append(src, []byte("\n// touched by cache_test\n")...), 0o644); err != nil {
				t.Fatal(err)
			}
			st1 := ca.Stats()
			_, editFresh, _ := runOnce(t, app, ca, workers)
			d = delta(ca.Stats(), st1)
			if d.Hits[cache.StageReview] != nFiles-1 || d.Misses[cache.StageReview] != 1 {
				t.Fatalf("post-edit review hits/misses = %d/%d, want %d/1",
					d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles-1)
			}
			if d.Misses[cache.StageAnalysis] != 1 {
				t.Fatalf("post-edit analysis misses = %d, want 1", d.Misses[cache.StageAnalysis])
			}
			if editFresh.TokensIn == 0 {
				t.Fatal("edited file was not re-reviewed")
			}
			if editFresh.TokensIn >= coldFresh.TokensIn {
				t.Fatalf("single-file edit re-spent the whole corpus: %d of %d tokens",
					editFresh.TokensIn, coldFresh.TokensIn)
			}
		})
	}
}

// TestDiskTierSurvivesRestart replays a corpus through a fresh cache
// instance backed by the same directory — the process-restart path.
// Each runOnce builds a fresh snapshot store too, so the warm run is a
// true cold process over a warm disk: every review and every extraction
// fact must come from disk, the analysis (a memory-only merge of those
// facts) re-runs without parsing anything, and fresh spend stays zero.
func TestDiskTierSurvivesRestart(t *testing.T) {
	app := copyApp(t, "HD")
	dir := t.TempDir()
	man := appManifest(t, app.Dir)
	nFiles := int64(len(man.Files))

	c1, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, _ := runOnce(t, app, c1, 2)

	c2, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, fresh, snap := runOnce(t, app, c2, 2)
	if !bytes.Equal(cold, warm) {
		t.Fatal("restarted warm report differs from cold")
	}
	if fresh != (llm.Usage{}) {
		t.Fatalf("restarted warm run spent fresh LLM traffic: %+v", fresh)
	}
	st := c2.Stats()
	if st.Hits[cache.StageReview] != nFiles || st.Hits[cache.StageFacts] != nFiles {
		t.Fatalf("restart hits review/facts = %d/%d, want %d/%d",
			st.Hits[cache.StageReview], st.Hits[cache.StageFacts], nFiles, nFiles)
	}
	if want := st.Hits[cache.StageReview] + st.Hits[cache.StageFacts]; st.DiskLoads != want {
		t.Fatalf("disk loads = %d, want %d (every review and facts hit read through)",
			st.DiskLoads, want)
	}
	if st.Misses[cache.StageAnalysis] != 1 {
		t.Fatalf("analysis misses = %d, want 1 (memory-only merge tier)", st.Misses[cache.StageAnalysis])
	}
	// The restart-warm proof: the static tier rebuilt from portable
	// facts, so the new process parsed and extracted nothing.
	if got := snap.Counter("source_parse_total"); got != 0 {
		t.Fatalf("restart-warm run parsed %d files, want 0", got)
	}
	if got := snap.Counter("source_derived_computes_total", "kind", sast.ExtractKind); got != 0 {
		t.Fatalf("restart-warm run extracted %d files, want 0", got)
	}
	if got := snap.Counter("source_derived_hydrations_total", "kind", sast.ExtractKind); got != nFiles {
		t.Fatalf("restart-warm run hydrated %d facts, want %d", got, nFiles)
	}
	if st.DiskEntries == 0 || st.DiskBytes == 0 {
		t.Fatalf("restarted cache reports empty disk tier: %d entries / %d bytes",
			st.DiskEntries, st.DiskBytes)
	}

	// A single-file edit after restart costs exactly 1 parse /
	// 1 extraction / 1 review miss — the incremental contract holds
	// across process boundaries.
	names := make([]string, 0, len(man.Files))
	for name := range man.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	touched := filepath.Join(app.Dir, names[0])
	src, err := os.ReadFile(touched)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(touched, append(src, []byte("\n// touched by cache_test\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	st1 := c2.Stats()
	_, _, editSnap := runOnce(t, app, c2, 2)
	d := delta(c2.Stats(), st1)
	if got := editSnap.Counter("source_parse_total"); got != 1 {
		t.Fatalf("post-restart edit parsed %d files, want 1", got)
	}
	if got := editSnap.Counter("source_derived_computes_total", "kind", sast.ExtractKind); got != 1 {
		t.Fatalf("post-restart edit extracted %d files, want 1", got)
	}
	if d.Misses[cache.StageReview] != 1 || d.Hits[cache.StageReview] != nFiles-1 {
		t.Fatalf("post-restart edit review hits/misses = %d/%d, want %d/1",
			d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles-1)
	}
}

// TestFaultProfileDisablesReviewCache pins the safety gate: under a
// fault profile, per-file memoization is off (admission decisions are
// run-global), so a second run spends tokens again.
func TestFaultProfileDisablesReviewCache(t *testing.T) {
	app := copyApp(t, "HD")
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := llm.ParseFaultProfile("light")
	if err != nil {
		t.Fatal(err)
	}
	run := func() llm.Usage {
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Cache = ca
		opts.LLM.Fault = &profile
		w := core.New(opts)
		if _, err := w.RunCorpus([]corpus.App{app}); err != nil {
			t.Fatal(err)
		}
		return w.LLMUsage()
	}
	run()
	if second := run(); second.TokensIn == 0 {
		t.Fatal("review cache served hits under a fault profile")
	}
	if hits := ca.Stats().Hits[cache.StageReview]; hits != 0 {
		t.Fatalf("review hits under fault profile = %d, want 0", hits)
	}
}
