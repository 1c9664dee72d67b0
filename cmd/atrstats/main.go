// Command atrstats runs the paper's analysis-section experiments: the
// register lifetime state split (Fig 4), the atomic region ratios (Fig 6),
// the consumer count distribution (Fig 12), and the event-gap analysis
// (Fig 14). It also cross-validates the simulator's region classification
// against the independent trace-based analyzer.
//
// Usage:
//
//	atrstats [-n instructions] [-fig 4|6|12|14|xcheck] [-json results.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"atr/internal/config"
	"atr/internal/experiments"
	"atr/internal/isa"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/trace"
	"atr/internal/workload"
)

func main() {
	n := flag.Uint64("n", 40_000, "instructions per simulation")
	fig := flag.String("fig", "all", "4, 6, 12, 14, xcheck, or all")
	jsonPath := flag.String("json", "", "write results to this file as JSON")
	flag.Parse()

	r := experiments.NewRunner(*n)
	w := os.Stdout
	results := make(map[string]any)
	switch *fig {
	case "4":
		results["fig4"] = experiments.Fig4(r, w)
	case "6":
		results["fig6"] = experiments.Fig6(r, w)
	case "12":
		results["fig12"] = experiments.Fig12(r, w)
	case "14":
		results["fig14"] = experiments.Fig14(r, w)
	case "xcheck":
		results["xcheck"] = crossCheck(int(*n), w)
	case "all":
		results["fig4"] = experiments.Fig4(r, w)
		results["fig6"] = experiments.Fig6(r, w)
		results["fig12"] = experiments.Fig12(r, w)
		results["fig14"] = experiments.Fig14(r, w)
		results["xcheck"] = crossCheck(int(*n), w)
	default:
		fmt.Fprintf(os.Stderr, "atrstats: unknown figure %q\n", *fig)
		os.Exit(2)
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
