// Command benchreport regenerates every table and figure of the paper's
// evaluation from the corpus (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	benchreport                  # everything
//	benchreport -only table3     # one artifact: table1..table6, figure3,
//	                             # figure4, study, if, cost, ablation,
//	                             # oracles
//	benchreport -workers 1       # force the sequential pipeline (tables
//	                             # are byte-identical at any worker count)
package main

import (
	"flag"
	"fmt"
	"os"

	"wasabi/internal/core"
	"wasabi/internal/evaluation"
)

func main() {
	only := flag.String("only", "", "render a single artifact")
	workers := flag.Int("workers", 0, "worker pool size; 0 = one per CPU, 1 = sequential")
	flag.Parse()

	static := map[string]func() string{
		"table1": evaluation.Table1,
		"table2": evaluation.Table2,
		"study":  evaluation.StudyStats,
	}
	if f, ok := static[*only]; ok {
		fmt.Println(f())
		return
	}

	opts := core.DefaultOptions()
	opts.Workers = *workers
	ev, err := evaluation.RunWith(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dynamic := map[string]func() string{
		"table3":   ev.Table3,
		"table4":   ev.Table4,
		"table5":   ev.Table5,
		"table6":   ev.Table6,
		"figure3":  ev.Figure3,
		"figure4":  ev.Figure4,
		"if":       ev.IFReportText,
		"cost":     ev.CostReport,
		"ablation": ev.AblationKeywordFilter,
		"oracles":  ev.AblationOracles,
	}
	if *only != "" {
		f, ok := dynamic[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *only)
			os.Exit(2)
		}
		fmt.Println(f())
		return
	}

	fmt.Println(evaluation.Table1())
	fmt.Println(evaluation.Table2())
	fmt.Println(evaluation.StudyStats())
	for _, name := range []string{"table3", "table4", "table5", "table6", "figure3", "figure4", "if", "cost", "ablation", "oracles"} {
		fmt.Println(dynamic[name]())
	}
}
