package main

import (
	"bytes"
	"fmt"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/apps/meta"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/evaluation"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// system is the program state one stream of operations runs against:
// an optional long-lived snapshot store and cache (the daemon's
// configuration) or neither (the one-shot CLI: every run builds a fresh
// store and caches nothing). Its registry receives the program's own
// obs counters; spans stay off.
type system struct {
	store *source.Store
	cache *cache.Cache
	// cacheDir is the cache's disk tier ("" for memory only).
	cacheDir string
	reg      *obs.Registry
}

// newSystem builds a system. cacheDir "" keeps the cache in memory;
// persistent false gives the CLI configuration (no store, no cache).
func newSystem(persistent bool, cacheDir string) (*system, error) {
	s := &system{reg: obs.NewRegistry(), cacheDir: cacheDir}
	if !persistent {
		return s, nil
	}
	ca, err := cache.New(cache.Options{Dir: cacheDir, Metrics: s.reg})
	if err != nil {
		return nil, err
	}
	s.store = source.NewStore(s.reg)
	s.cache = ca
	return s, nil
}

// options returns the pipeline options a run on s uses. workers 0 is
// the shipped default (one per CPU).
func (s *system) options(workers int) core.Options {
	opts := core.DefaultOptions()
	if workers > 0 {
		opts.Workers = workers
	}
	opts.Obs = &obs.Observer{Metrics: s.reg}
	opts.Cache = s.cache
	opts.Source = s.store
	return opts
}

// outcome is one analysis run: its canonical report bytes, the run
// itself (for scoring) and the fresh LLM tokens it spent.
type outcome struct {
	run    *core.CorpusRun
	report []byte
	fresh  int64
}

// analyze runs the full pipeline over apps and renders the report.
func (s *system) analyze(apps []corpus.App, workers int) (outcome, error) {
	w := core.New(s.options(workers))
	cr, err := w.RunCorpus(apps)
	if err != nil {
		return outcome{}, err
	}
	data, err := report.Marshal(report.Build(cr))
	if err != nil {
		return outcome{}, err
	}
	return outcome{run: cr, report: data, fresh: w.LLMUsage().TokensIn}, nil
}

// reference is the expected output of one input: made once in set-up
// by a sequential (Workers=1) cold run on a fresh CLI-configured
// system, untimed, and scored against the ground-truth manifests.
type reference struct {
	report []byte
	score  evaluation.Score
}

// makeReference computes the reference for apps.
func makeReference(apps []corpus.App) (reference, error) {
	sys, err := newSystem(false, "")
	if err != nil {
		return reference{}, err
	}
	out, err := sys.analyze(apps, 1)
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	return reference{report: out.report, score: scoreRun(out.run, apps)}, nil
}

// scoreRun scores a run's findings against the apps' ground truth:
// dynamic oracle reports, static LLM WHEN reports, and IF reports. The
// detectors never see the manifests; only this scoring does.
func scoreRun(cr *core.CorpusRun, apps []corpus.App) evaluation.Score {
	var s evaluation.Score
	var manifests []meta.Structure
	for _, app := range apps {
		manifests = append(manifests, app.Manifest...)
	}
	for _, ar := range cr.Apps {
		s.Add(evaluation.ScoreDynamic(ar.App, ar.Dyn.Reports).Total())
		s.Add(evaluation.ScoreStatic(ar.App, ar.Static.WhenReports).Total())
	}
	s.Add(evaluation.ScoreIF(cr.IFReports, manifests))
	return s
}

// check compares an op's outcome with the reference: the report must
// be byte-identical and score the same against the manifests.
func (r reference) check(out outcome, apps []corpus.App) error {
	if !bytes.Equal(out.report, r.report) {
		return fmt.Errorf("report differs from the set-up reference (%d vs %d bytes)", len(out.report), len(r.report))
	}
	if got := scoreRun(out.run, apps); got != r.score {
		return fmt.Errorf("score %+v, reference %+v", got, r.score)
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
