// Command chaosreport measures the pipeline under an unreliable LLM
// backend: it runs the full evaluation (§4 scoring against corpus ground
// truth) at increasing transient-fault rates plus a hard outage, then
// again over multi-backend failover topologies, and prints the markdown
// tables recorded in EXPERIMENTS.md — true/false positives per workflow,
// degraded-file counts, and the §4.3 cost — so the "budgeted retry keeps
// results and cost stable" and "failover survives a primary outage with
// zero degraded files" claims are numbers, not assertions.
//
// Usage:
//
//	go run ./cmd/chaosreport
//
// Output is deterministic (seeded model, seeded faults, virtual time).
package main

import (
	"fmt"
	"os"

	"wasabi/internal/core"
	"wasabi/internal/evaluation"
	"wasabi/internal/llm"
)

// row is one measured fault level (single-backend chaos table).
type row struct {
	name    string
	profile *llm.FaultProfile
}

// topoRow is one measured backend topology (failover table).
type topoRow struct {
	name string
	spec string
}

// measure runs the evaluation and prints one markdown result row.
func measure(name string, opts core.Options) {
	ev, err := evaluation.RunWith(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosreport: %s: %v\n", name, err)
		os.Exit(1)
	}
	var dyn, static evaluation.Score
	degraded := 0
	for _, ar := range ev.Apps {
		dyn.Add(ar.DynScores.Total())
		static.Add(ar.StaticScore.Total())
		degraded += len(ar.ID.Degraded)
	}
	fmt.Printf("| %s | %d_%d | %d_%d | %d_%d | %d | %d | %.1fK | $%.2f |\n",
		name,
		dyn.True, dyn.FP,
		static.True, static.FP,
		ev.IFScore.True, ev.IFScore.FP,
		degraded,
		ev.Usage.Calls, float64(ev.Usage.TokensIn)/1000, ev.Usage.CostUSD)
}

func header() {
	fmt.Println("| Fault level | Dynamic (true_FP) | Static WHEN (true_FP) | IF (true_FP) | Degraded files | LLM calls | Tokens | Cost |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
}

func main() {
	rows := []row{
		{"0% (perfect)", nil},
		{"0% (stack on)", &llm.FaultProfile{}},
		{"5% (light)", &llm.FaultProfile{TimeoutDenom: 60, RateLimitDenom: 60, ServerErrorDenom: 60}},
		{"20% (heavy)", &llm.FaultProfile{TimeoutDenom: 15, RateLimitDenom: 15, ServerErrorDenom: 15}},
		{"hard outage", &llm.FaultProfile{HardOutage: true}},
	}
	header()
	for _, r := range rows {
		opts := core.DefaultOptions()
		opts.LLM.Fault = r.profile
		measure(r.name, opts)
	}

	// Failover topologies: the same scoring, but reviews route across a
	// multi-backend topology (docs/RESILIENCE.md "Backend topology"). The
	// headline row is the hard primary outage: with a healthy secondary,
	// every review fails over and completes — zero degraded files, scores
	// identical to the perfect single-backend baseline.
	topos := []topoRow{
		{"single healthy", "primary=sim"},
		{"primary outage → secondary", "primary=sim:outage;secondary=sim"},
		{"flaky primary → secondary", "primary=sim:heavy;secondary=sim"},
	}
	fmt.Println()
	fmt.Println("Failover topologies (multi-backend routing):")
	fmt.Println()
	header()
	for _, tr := range topos {
		specs, err := llm.ParseBackends(tr.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosreport: %s: %v\n", tr.name, err)
			os.Exit(1)
		}
		opts := core.DefaultOptions()
		if opts.LLM.Multi, err = llm.NewMultiTransport(opts.LLM, specs, 0, nil); err != nil {
			fmt.Fprintf(os.Stderr, "chaosreport: %s: %v\n", tr.name, err)
			os.Exit(1)
		}
		measure(tr.name, opts)
	}
}
