// Command atrstats runs the paper's analysis-section experiments: the
// register lifetime state split (Fig 4), the atomic region ratios (Fig 6),
// the consumer count distribution (Fig 12), and the event-gap analysis
// (Fig 14). The figures' runs execute as one sweep grid on the sweep
// engine, as atrsweep's figure mode runs them. It also cross-validates the
// simulator's region classification against the independent trace-based
// analyzer.
//
// Usage:
//
//	atrstats [-n instructions] [-fig 4|6|12|14|xcheck|all] [-json results.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"atr/internal/config"
	"atr/internal/experiments"
	"atr/internal/isa"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/sweep"
	"atr/internal/trace"
	"atr/internal/workload"
)

func main() {
	n := flag.Uint64("n", 40_000, "instructions per simulation")
	fig := flag.String("fig", "all", "4, 6, 12, 14, xcheck, or all")
	jsonPath := flag.String("json", "", "write results to this file as JSON")
	flag.Parse()

	var figs []experiments.Figure
	for _, f := range experiments.Figures() {
		switch f.Name {
		case "fig4", "fig6", "fig12", "fig14":
			if *fig == "all" || f.Name == "fig"+*fig {
				figs = append(figs, f)
			}
		}
	}
	if figs == nil && *fig != "xcheck" {
		fmt.Fprintf(os.Stderr, "atrstats: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	w := os.Stdout
	results := make(map[string]any)
	if len(figs) > 0 {
		g := experiments.Grid("stats-"+*fig, figs, *n)
		m, err := sweep.New(sweep.Options{}).Execute(context.Background(), g, nil)
		if err == nil && m.Totals.Failed > 0 {
			err = fmt.Errorf("%d of %d runs failed", m.Totals.Failed, len(m.Runs))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrstats:", err)
			os.Exit(1)
		}
		s := experiments.Index(g, m)
		for _, f := range figs {
			results[f.Name] = f.Render(s, w)
		}
	}
	if *fig == "xcheck" || *fig == "all" {
		results["xcheck"] = crossCheck(int(*n), w)
	}
	if *jsonPath != "" {
		out := map[string]any{
			"schema":  "atr-stats-manifest",
			"version": 1,
			"build":   obs.Build(),
			"instr":   *n,
			"results": results,
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrstats:", err)
			os.Exit(1)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "atrstats:", err)
			os.Exit(1)
		}
	}
}

// CrossRow is one benchmark's pipeline-vs-trace atomic ratio comparison.
type CrossRow struct {
	Bench    string  `json:"bench"`
	Pipeline float64 `json:"pipeline"`
	Trace    float64 `json:"trace"`
	Delta    float64 `json:"delta"`
}

// crossCheck compares the timing simulator's atomic region ratio (which
// observes the speculative stream) with the trace analyzer's (which observes
// only the committed path). The two are independent implementations of the
// region semantics; they should agree closely.
func crossCheck(n int, w *os.File) []CrossRow {
	fmt.Fprintf(w, "Cross-check: pipeline ledger vs trace analyzer (atomic ratio, GPR)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %8s\n", "bench", "pipeline", "trace", "delta")
	var rows []CrossRow
	for _, p := range workload.Profiles() {
		prog := p.Generate()
		cpu := pipeline.New(config.GoldenCove(), prog)
		cpu.Engine.TrackLifetimes()
		cpu.Run(uint64(n))
		_, _, pipeAtomic := cpu.Engine.Ledger.RegionFractions()
		tr := trace.AnalyzeProgram(prog, isa.ClassGPR, n)
		fmt.Fprintf(w, "%-12s %9.1f%% %9.1f%% %7.1f%%\n",
			p.Name, 100*pipeAtomic, 100*tr.Atomic, 100*(pipeAtomic-tr.Atomic))
		rows = append(rows, CrossRow{
			Bench: p.Name, Pipeline: pipeAtomic, Trace: tr.Atomic,
			Delta: pipeAtomic - tr.Atomic,
		})
	}
	return rows
}
