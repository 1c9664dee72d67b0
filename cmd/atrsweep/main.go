// Command atrsweep regenerates the paper's evaluation figures and executes
// declared sweep grids on the sharded fault-tolerant sweep engine. Both
// modes run one sweep grid through the same engine call, so journaling,
// resume, retries, the timeout, fault injection and the perf file work the
// same way in each.
//
// Figure mode (the default) runs the union of the named figures' runs as
// one grid and prints their tables (-fig logic reads no runs, so it starts
// no sweep and writes no journal or perf file):
//
//	atrsweep [-fig 1|4|6|10|11|12|13|14|15|logic|ablations|all] [-json results.json]
//	         [common flags]
//
// Grid mode, selected by -grid, writes the grid's result manifest:
//
//	atrsweep -grid fig10|full|micro|litmus [-sample-mode exact,systematic:P/W/U,...]
//	         [-out manifest.json] [common flags]
//
// Common flags:
//
//	[-n instructions] [-workers N] [-journal sweep.jsonl] [-resume sweep.jsonl]
//	[-retries N] [-backoff d] [-timeout d] [-perf perf.json] [-inject-panic k]
//	[-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The engine runs up to four consecutive exact units of one profile as
// lockstep lanes over one shared program image. Grouping is a pure
// scheduling decision — the manifest bytes are identical to a solo run —
// and its telemetry (groups, lanes, setup/exec split) lands in the -perf
// file. Figure runs carry lifetime detail, so they run solo and exact.
//
// -sample-mode adds a sampled-execution axis to a grid: a comma-separated
// list where each entry is either "exact" (full-detail simulation) or a
// checkpoint plan "systematic:<period>/<window>/<warmup>". Every grid unit
// is run once per listed mode; sampled units carry extrapolated estimates
// and never join a lockstep group.
//
// Grid mode writes a deterministic result manifest: the same grid produces
// byte-identical -out files regardless of worker count or resume splits,
// and figure mode prints byte-identical tables. The -journal file records
// every completed run as JSONL; a killed sweep restarted with -resume
// re-executes only the missing runs. Scheduling telemetry (wall clock,
// retries, per-shard throughput) varies run to run and goes to -perf, never
// into the manifest. Exit status: 0 all runs succeeded, 3 the sweep
// completed with recorded failures (figure mode then prints no table), 1 on
// cancellation or operational error, 2 on invalid flags (-workers < 1,
// -retries < 0, -resume without -journal, a malformed -sample-mode, or a
// flag of the other mode: -json or -fig with -grid, -sample-mode or -out
// without it).
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
	// Perf is host-side throughput over the runs this invocation executed:
	// cycles_per_sec is the headline number tracked across optimization
	// passes.
	Perf obs.PerfInfo `json:"perf"`
	Runs int          `json:"runs"`
}

const (
	sweepSchema  = "atr-sweep-manifest"
	sweepVersion = 1
)

var (
	n          = flag.Uint64("n", 40000, "instructions per simulation")
	workers    = flag.Int("workers", 0, "worker pool width (0 selects GOMAXPROCS)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")

	fig      = flag.String("fig", "all", "figure mode: figure to regenerate (1,4,6,10,11,12,13,14,15,logic,ablations,all)")
	jsonPath = flag.String("json", "", "figure mode: write figure results to this file as a sweep manifest")

	grid        = flag.String("grid", "", "run a sweep grid instead of figures (fig10, full, micro, litmus)")
	out         = flag.String("out", "", "grid mode: write the deterministic result manifest here (default stdout)")
	sampleModes = flag.String("sample-mode", "", "grid mode: comma-separated sampled-execution axis (exact and/or systematic:<period>/<window>/<warmup> plans)")

	journalPath = flag.String("journal", "", "append a JSONL journal of completed runs to this file")
	resumePath  = flag.String("resume", "", "resume from this journal, re-executing only missing runs")
	retries     = flag.Int("retries", 1, "retries per failing run before recording the failure")
	backoff     = flag.Duration("backoff", 100*time.Millisecond, "first-retry backoff (doubles per retry)")
	timeout     = flag.Duration("timeout", 0, "abort the sweep after this long (0 disables)")
	perfPath    = flag.String("perf", "", "write scheduling telemetry (wall clock, shards) to this file")
	injectPanic = flag.Int("inject-panic", 0, "poison the k-th grid run (1-based) so every attempt panics")
)

func main() {
	flag.Parse()

	usageErr := func(msg string) {
		fmt.Fprintln(os.Stderr, "atrsweep:", msg)
		os.Exit(2)
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["workers"] && *workers < 1 {
		usageErr(fmt.Sprintf("-workers must be >= 1 (got %d); omit the flag to use GOMAXPROCS", *workers))
	}
	if *retries < 0 {
		usageErr(fmt.Sprintf("-retries must be >= 0 (got %d)", *retries))
	}
	if *resumePath != "" && *journalPath == "" {
		usageErr("-resume requires -journal: without one, runs completed after the resume point are lost on the next interruption")
	}
	if *grid != "" {
		if set["fig"] {
			usageErr("-fig and -grid select different modes; give one")
		}
		if *jsonPath != "" {
			usageErr("-json records figure results and does not apply with -grid (the manifest goes to -out)")
		}
	} else {
		if *sampleModes != "" {
			usageErr("-sample-mode is a grid axis and requires -grid (figure runs are exact: they carry lifetime detail)")
		}
		if *out != "" {
			usageErr("-out writes a grid manifest and requires -grid (figure mode prints tables; -json records them)")
		}
	}

	var g sweep.Grid
	var figs []experiments.Figure
	if *grid != "" {
		var err error
		if g, err = sweep.GridByName(*grid, *n); err != nil {
			fmt.Fprintln(os.Stderr, "atrsweep:", err)
			os.Exit(1)
		}
		if *sampleModes != "" {
			for _, m := range strings.Split(*sampleModes, ",") {
				m = strings.TrimSpace(m)
				if m == "exact" || m == "" {
					g.SampleModes = append(g.SampleModes, "")
					continue
				}
				if _, err := checkpoint.ParseMode(m); err != nil {
					usageErr(err.Error())
				}
				g.SampleModes = append(g.SampleModes, m)
			}
		}
	} else {
		var ok bool
		if figs, ok = experiments.Lookup(*fig); !ok {
			usageErr(fmt.Sprintf("unknown figure %q", *fig))
		}
		g = experiments.Grid("fig-"+*fig, figs, *n)
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
	code := runGrid(g, figs)
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
	os.Exit(code)
}

// runGrid executes g on the engine and returns the process exit code. With
// figs it renders their tables from the records to stdout (and -json);
// without, it writes the grid's manifest.
func runGrid(g sweep.Grid, figs []experiments.Figure) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "atrsweep:", err)
		return 1
	}
	if figs != nil && len(g.Runs) == 0 {
		// A figure set without runs (the §4.4 logic) needs no engine.
		return render(figs, nil, obs.SweepInfo{})
	}

	opts := sweep.Options{
		Workers:     *workers,
		Retries:     *retries,
		Backoff:     *backoff,
		InjectPanic: *injectPanic,
	}
	if *resumePath != "" {
		f, err := os.Open(*resumePath)
		if err != nil {
			return fail(err)
		}
		j, jerr := sweep.LoadJournal(f)
		f.Close()
		if jerr != nil {
			return fail(fmt.Errorf("resume %s: %w", *resumePath, jerr))
		}
		if j.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "atrsweep: resume: dropped %d unreadable journal line(s)\n", j.Dropped)
		}
		opts.Resume = j
	}
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
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
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	eng := sweep.New(opts)
	m, err := eng.Execute(ctx, g, nil)
	info := eng.Info()
	printSweepSummary(info)

	if *perfPath != "" {
		f, ferr := os.Create(*perfPath)
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
	if figs == nil {
		var w io.Writer = os.Stdout
		if *out != "" {
			f, ferr := os.Create(*out)
			if ferr != nil {
				return fail(ferr)
			}
			defer f.Close()
			w = f
		}
		if err := m.Encode(w); err != nil {
			return fail(err)
		}
	}
	if m.Totals.Failed > 0 {
		fmt.Fprintf(os.Stderr, "atrsweep: %d of %d runs failed\n", m.Totals.Failed, len(m.Runs))
		return 3
	}
	if figs != nil {
		return render(figs, experiments.Index(g, m), info)
	}
	return 0
}

// render prints figs' tables from s to stdout and writes -json, returning
// the exit code. info describes the sweep that produced s (zero when the
// figures read no runs).
func render(figs []experiments.Figure, s experiments.Stats, info obs.SweepInfo) int {
	results := make(map[string]any)
	for _, f := range figs {
		results[f.Name] = f.Render(s, os.Stdout)
	}
	if *jsonPath == "" {
		return 0
	}
	perf := obs.PerfInfo{WallSeconds: info.WallSeconds, CyclesPerSec: info.CyclesPerSec}
	var committed uint64
	for _, sh := range info.Shards {
		committed += sh.Committed
	}
	if info.WallSeconds > 0 {
		perf.InstrPerSec = float64(committed) / info.WallSeconds
	}
	f, err := os.Create(*jsonPath)
	if err == nil {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(sweepManifest{
			Schema: sweepSchema, Version: sweepVersion, Build: obs.Build(),
			Instr: *n, Figures: results, Perf: perf, Runs: info.Total,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atrsweep:", err)
		return 1
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
