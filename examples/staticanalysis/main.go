// Static checking workflow on the HBase miniature: the CodeQL-analogue
// loop analysis, the simulated-LLM review with the Q1–Q4 prompt chain,
// and the corpus-wide retry-ratio IF-bug analysis (§3.2).
//
//	go run ./examples/staticanalysis
package main

import (
	"fmt"
	"log"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/llm"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

func main() {
	app, err := corpus.ByCode("HB")
	if err != nil {
		log.Fatal(err)
	}

	// Load the app once: both techniques below read the same snapshot, so
	// every file is read, hashed and parsed exactly once.
	snap, err := source.NewStore(nil).Load(app.Dir)
	if err != nil {
		log.Fatal(err)
	}

	// Technique 1: control-flow + retry-naming analysis over real Go ASTs.
	analysis, err := sast.AnalyzeSnapshotWith(snap, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structural analysis: %d loop candidates, %d survive the retry-keyword filter\n",
		analysis.CandidateLoops, len(analysis.Loops))
	for _, loop := range analysis.Loops {
		fmt.Printf("  %-45s (%s:%d, %d injectable triggers)\n",
			loop.Coordinator, loop.File, loop.Line, len(loop.Triplets))
	}

	// Technique 2: the simulated GPT-4 review, file by file.
	fmt.Println("\nLLM review (Q1 retry? / Q2 sleep? / Q3 cap? / Q4 poll?):")
	client := llm.NewClient(llm.DefaultConfig())
	for i, sf := range snap.Files {
		rev := client.ReviewSnapshotAt(sf, -1, i)
		f := sf.Name
		if rev.TruncatedContext {
			fmt.Printf("  %-18s too large for the model's context (%d bytes) — retry missed\n", f, rev.Size)
			continue
		}
		for _, find := range rev.Findings {
			fmt.Printf("  %-18s %-42s mech=%-12s sleep=%-5v cap=%v\n",
				f, find.Coordinator, find.Mechanism, find.SleepsBeforeRetry, find.HasCap)
		}
		for _, bug := range llm.DetectWhenBugs(rev) {
			fmt.Printf("  %-18s   -> WHEN bug: %s in %s\n", f, bug.Kind, bug.Coordinator)
		}
	}

	// The IF-bug ratio analysis needs the whole corpus for context.
	var analyses []*sast.Analysis
	for _, a := range corpus.Apps() {
		an, err := sast.AnalyzeDir(a.Dir)
		if err != nil {
			log.Fatal(err)
		}
		analyses = append(analyses, an)
	}
	fmt.Println("\ncorpus-wide retry-ratio outliers (IF bugs):")
	_, reports := sast.RatioAnalysis(analyses, sast.DefaultRatioOptions())
	for _, r := range reports {
		verb := "NOT retried"
		if r.Retried {
			verb = "retried"
		}
		fmt.Printf("  %s %s in %s (%s)\n", r.Exception, verb, r.Coordinator, r.Ratio.String())
	}

	u := client.Usage()
	fmt.Printf("\nLLM usage for the HBase review: %d calls, %.1fK tokens, $%.2f\n",
		u.Calls, float64(u.TokensIn)/1000, u.CostUSD)
}
