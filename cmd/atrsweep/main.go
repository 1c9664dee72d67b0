// Command atrsweep regenerates the paper's evaluation figures and executes
// declared sweep grids on the sharded fault-tolerant sweep engine.
//
// Figure mode (the default):
//
//	atrsweep [-n instructions] [-fig 1|4|6|10|11|12|13|14|15|logic|all]
//	         [-workers N] [-json results.json] [-sample N]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Grid mode, selected by -grid:
//
//	atrsweep -grid fig10|full|micro [-n instructions] [-workers N]
//	         [-sample-mode exact,systematic:P/W/U,...]
//	         [-out manifest.json] [-journal sweep.jsonl] [-resume sweep.jsonl]
//	         [-retries N] [-backoff d] [-timeout d] [-perf perf.json]
//	         [-inject-panic k]
//
// The engine runs up to four consecutive exact units of one profile as
// lockstep lanes over one shared program image. Grouping is a pure
// scheduling decision — the manifest bytes are identical to a solo run —
// and its telemetry (groups, lanes, setup/exec split) lands in the -perf
// file.
//
// -sample-mode adds a sampled-execution axis to the grid: a comma-separated
// list where each entry is either "exact" (full-detail simulation) or a
// checkpoint plan "systematic:<period>/<window>/<warmup>". Every grid unit
// is run once per listed mode; sampled units carry extrapolated estimates
// and never join a lockstep group. -sample-mode without -grid, or
// with a malformed plan, is a usage error (exit 2).
//
// Grid mode writes a deterministic result manifest: the same grid produces
// byte-identical -out files regardless of worker count or resume splits.
// The -journal file records every completed run as JSONL; a killed sweep
// restarted with -resume re-executes only the missing runs. Scheduling
// telemetry (wall clock, retries, per-shard throughput) varies run to run
// and goes to -perf, never into the manifest. Exit status: 0 all runs
// succeeded, 3 the sweep completed with recorded failures, 1 on
// cancellation or operational error, 2 on invalid flags (-workers < 1,
// -retries < 0, or -resume without -journal).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"atr/internal/checkpoint"
	"atr/internal/experiments"
	"atr/internal/obs"
	"atr/internal/sweep"
)

// sweepManifest is the machine-readable record of one figure-mode run.
type sweepManifest struct {
	Schema  string         `json:"schema"`
	Version int            `json:"version"`
	Build   obs.BuildInfo  `json:"build"`
	Instr   uint64         `json:"instr"`
	Figures map[string]any `json:"figures"`
	// Perf aggregates host-side throughput over the sweep's unique
	// simulations (memoized reruns count once): cycles_per_sec is the
	// headline number tracked across optimization passes.
	Perf obs.PerfInfo `json:"perf"`
	Runs int          `json:"runs"`
}

const (
	sweepSchema  = "atr-sweep-manifest"
	sweepVersion = 1
)

func main() {
	n := flag.Uint64("n", 40000, "instructions per simulation")
	fig := flag.String("fig", "all", "figure to regenerate (1,4,6,10,11,12,13,14,15,logic,ablations,all)")
	jsonPath := flag.String("json", "", "write figure results to this file as a sweep manifest")
	sample := flag.Uint64("sample", 0, "attach an interval sampler with this period to every run (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	workers := flag.Int("workers", 0, "worker pool width (0 selects GOMAXPROCS)")

	grid := flag.String("grid", "", "run a sweep grid instead of figures (fig10, full, micro)")
	out := flag.String("out", "", "grid mode: write the deterministic result manifest here (default stdout)")
	journalPath := flag.String("journal", "", "grid mode: append a JSONL journal of completed runs to this file")
	resumePath := flag.String("resume", "", "grid mode: resume from this journal, re-executing only missing runs")
	retries := flag.Int("retries", 1, "grid mode: retries per failing run before recording the failure")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "grid mode: first-retry backoff (doubles per retry)")
	timeout := flag.Duration("timeout", 0, "grid mode: abort the sweep after this long (0 disables)")
	perfPath := flag.String("perf", "", "grid mode: write scheduling telemetry (wall clock, shards) to this file")
	injectPanic := flag.Int("inject-panic", 0, "grid mode: poison the k-th grid run (1-based) so every attempt panics")
	sampleModes := flag.String("sample-mode", "", "grid mode: comma-separated sampled-execution axis (exact and/or systematic:<period>/<window>/<warmup> plans)")
	flag.Parse()

	usageErr := func(msg string) {
		fmt.Fprintln(os.Stderr, "atrsweep:", msg)
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" && *workers < 1 {
			usageErr(fmt.Sprintf("-workers must be >= 1 (got %d); omit the flag to use GOMAXPROCS", *workers))
		}
	})
	if *retries < 0 {
		usageErr(fmt.Sprintf("-retries must be >= 0 (got %d)", *retries))
	}
	if *resumePath != "" && *journalPath == "" {
		usageErr("-resume requires -journal: without one, runs completed after the resume point are lost on the next interruption")
	}
	if *sampleModes != "" && *grid == "" {
		usageErr("-sample-mode is a grid axis and requires -grid (figure mode always runs exact)")
	}
	var modes []string
	if *sampleModes != "" {
		for _, m := range strings.Split(*sampleModes, ",") {
			m = strings.TrimSpace(m)
			if m == "exact" || m == "" {
				modes = append(modes, "")
				continue
			}
			if _, err := checkpoint.ParseMode(m); err != nil {
				usageErr(err.Error())
			}
			modes = append(modes, m)
		}
	}

	if *grid != "" {
		os.Exit(runGrid(*grid, *n, *workers, modes, *out, *journalPath, *resumePath,
			*retries, *backoff, *timeout, *perfPath, *injectPanic))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep: cpuprofile:", err)
			os.Exit(1)
		}
	}

	r := experiments.NewRunner(*n)
	r.SampleInterval = *sample
	r.Workers = *workers
	w := os.Stdout
	figures := make(map[string]any)
	start := time.Now()
	switch *fig {
	case "1":
		figures["fig1"] = experiments.Fig1(r, w)
	case "4":
		figures["fig4"] = experiments.Fig4(r, w)
	case "6":
		figures["fig6"] = experiments.Fig6(r, w)
	case "10":
		figures["fig10"] = experiments.Fig10(r, w)
	case "11":
		figures["fig11"] = experiments.Fig11(r, w)
	case "12":
		figures["fig12"] = experiments.Fig12(r, w)
	case "13":
		figures["fig13"] = experiments.Fig13(r, w)
	case "14":
		figures["fig14"] = experiments.Fig14(r, w)
	case "15":
		figures["fig15"] = experiments.Fig15(r, w)
	case "logic":
		figures["logic"] = experiments.Logic(w)
	case "ablations":
		experiments.Ablations(r, w)
	case "all":
		figures["fig1"] = experiments.Fig1(r, w)
		figures["fig4"] = experiments.Fig4(r, w)
		figures["fig6"] = experiments.Fig6(r, w)
		figures["fig10"] = experiments.Fig10(r, w)
		figures["fig11"] = experiments.Fig11(r, w)
		figures["fig12"] = experiments.Fig12(r, w)
		figures["fig13"] = experiments.Fig13(r, w)
		figures["fig14"] = experiments.Fig14(r, w)
		figures["fig15"] = experiments.Fig15(r, w)
		figures["logic"] = experiments.Logic(w)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep: memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}
	runs, instr, cycles := r.Totals()
	fmt.Fprintf(os.Stderr, "elapsed: %v (%d runs, %.0f cycles/s, %.0f instr/s)\n",
		elapsed, runs,
		float64(cycles)/elapsed.Seconds(), float64(instr)/elapsed.Seconds())

	if *jsonPath != "" {
		m := sweepManifest{
			Schema:  sweepSchema,
			Version: sweepVersion,
			Build:   obs.Build(),
			Instr:   *n,
			Figures: figures,
			Runs:    runs,
			Perf: obs.PerfInfo{
				WallSeconds:  elapsed.Seconds(),
				InstrPerSec:  float64(instr) / elapsed.Seconds(),
				CyclesPerSec: float64(cycles) / elapsed.Seconds(),
			},
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep:", err)
			os.Exit(1)
		}
	}
}

// runGrid executes one sweep grid on the engine and returns the process
// exit code.
func runGrid(name string, instr uint64, workers int, sampleModes []string,
	out, journalPath, resumePath string,
	retries int, backoff, timeout time.Duration, perfPath string, injectPanic int) int {

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "atrsweep:", err)
		return 1
	}

	g, err := sweep.GridByName(name, instr)
	if err != nil {
		return fail(err)
	}
	g.SampleModes = sampleModes

	opts := sweep.Options{
		Workers:     workers,
		Retries:     retries,
		Backoff:     backoff,
		InjectPanic: injectPanic,
	}

	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return fail(err)
		}
		j, jerr := sweep.LoadJournal(f)
		f.Close()
		if jerr != nil {
			return fail(fmt.Errorf("resume %s: %w", resumePath, jerr))
		}
		if j.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "atrsweep: resume: dropped %d unreadable journal line(s)\n", j.Dropped)
		}
		opts.Resume = j
	}
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		opts.Journal = f
	}

	opts.OnProgress = func(p obs.SweepProgress) {
		status := "ok"
		if p.Err != "" {
			status = "FAIL " + p.Err
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s (worker %d): %s\n",
			p.Done+p.Failed, p.Total, p.Bench, p.Scheme, p.Worker, status)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	eng := sweep.New(opts)
	m, err := eng.Execute(ctx, g, nil)
	info := eng.Info()
	printSweepSummary(info)

	if perfPath != "" {
		f, ferr := os.Create(perfPath)
		if ferr != nil {
			return fail(ferr)
		}
		if eerr := obs.NewPerfManifest(info).Encode(f); eerr != nil {
			f.Close()
			return fail(eerr)
		}
		f.Close()
	}

	if err != nil {
		return fail(fmt.Errorf("sweep aborted: %w (journal holds completed runs; restart with -resume)", err))
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, ferr := os.Create(out)
		if ferr != nil {
			return fail(ferr)
		}
		defer f.Close()
		w = f
	}
	if err := m.Encode(w); err != nil {
		return fail(err)
	}

	if m.Totals.Failed > 0 {
		fmt.Fprintf(os.Stderr, "atrsweep: %d of %d runs failed\n", m.Totals.Failed, len(m.Runs))
		return 3
	}
	return 0
}

func printSweepSummary(info obs.SweepInfo) {
	fmt.Fprintf(os.Stderr,
		"sweep: %d/%d done, %d failed, %d retried, %d resumed, %d journal flushes, %.2fs wall, %.0f cycles/s\n",
		info.Done, info.Total, info.Failed, info.Retried, info.Resumed,
		info.JournalFlushes, info.WallSeconds, info.CyclesPerSec)
	if info.Batches > 0 {
		fmt.Fprintf(os.Stderr, "  batches: %d groups covering %d runs (lane cap %d), %.2fs setup, %.2fs exec\n",
			info.Batches, info.BatchedRuns, info.Batch, info.SetupSeconds, info.ExecSeconds)
	}
	for _, s := range info.Shards {
		if s.Runs == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  shard %d: %d runs (%d failed), %.2fs busy, %.0f cycles/s\n",
			s.Worker, s.Runs, s.Failed, s.BusySeconds, s.CyclesPerSec)
	}
}
