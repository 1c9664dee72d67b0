// Command atrsim runs a single simulation of one benchmark profile under a
// chosen release scheme and prints the run summary, release accounting, and
// register lifetime statistics. With the observability flags it also emits
// a per-uop pipeline event trace (JSONL and/or Konata-loadable O3PipeView),
// an interval time series, and a machine-readable run manifest.
//
// Usage:
//
//	atrsim [-bench name] [-scheme baseline|nonspec-er|atomic|combined]
//	       [-regs N] [-n instructions] [-delay N] [-walk] [-v]
//	       [-trace out.jsonl] [-o3view out.o3] [-json run.json]
//	       [-sample N] [-samples out.csv|out.json]
//	       [-sample-mode systematic:P/W/U]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -sample-mode systematic:<period>/<window>/<warmup> switches to sampled
// execution: the functional emulator fast-forwards between systematically
// spaced windows (keeping predictor and cache state warm), the detailed
// pipeline runs only inside the windows, and every reported statistic is an
// extrapolated estimate with 95% confidence error bars. Sampled execution
// is incompatible with the per-CPU observers (-trace/-o3view/-sample/
// -samples) and with litmus profiles (whose single architected outcome
// cannot be extrapolated); combining them is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/workload"
)

func main() {
	bench := flag.String("bench", "omnetpp", "benchmark profile name (see -list)")
	schemeName := flag.String("scheme", "atomic", "release scheme: baseline, nonspec-er, atomic, combined")
	regs := flag.Int("regs", 64, "physical registers per class (0 = infinite)")
	n := flag.Uint64("n", 100_000, "instructions to simulate")
	delay := flag.Int("delay", 0, "ATR redefine-signal pipeline delay (Fig 13)")
	walk := flag.Bool("walk", false, "use walk-based SRT recovery instead of checkpoints")
	list := flag.Bool("list", false, "list benchmark profiles and exit")
	verbose := flag.Bool("v", false, "print internal release counters")
	tracePath := flag.String("trace", "", "write a JSONL pipeline event trace to this file")
	o3Path := flag.String("o3view", "", "write a gem5 O3PipeView trace (Konata-loadable) to this file")
	jsonPath := flag.String("json", "", "write a machine-readable run manifest to this file")
	sample := flag.Uint64("sample", 0, "interval sampler period in cycles (0 disables)")
	sampleMode := flag.String("sample-mode", "", "sampled execution plan: systematic:<period>/<window>/<warmup> (empty = exact)")
	samplesPath := flag.String("samples", "", "write the interval time series to this file (.csv or .json)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-12s %s\n", p.Name, p.Class)
		}
		for _, p := range workload.LitmusProfiles() {
			fmt.Printf("%-28s %s\n", p.Name, p.Class)
		}
		return
	}
	if *n == 0 {
		fmt.Fprintln(os.Stderr, "atrsim: -n must be positive (0 would simulate nothing)")
		os.Exit(2)
	}
	p, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "atrsim: unknown benchmark %q (try -list)\n", *bench)
		os.Exit(2)
	}
	scheme, err := config.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atrsim:", err)
		os.Exit(2)
	}
	cfg := config.GoldenCove().WithScheme(scheme).WithPhysRegs(*regs)
	cfg.RedefineDelay = *delay
	cfg.WalkRecovery = *walk
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "atrsim:", err)
		os.Exit(2)
	}
	if *samplesPath != "" && *sample == 0 {
		*sample = 1000 // -samples implies sampling at a default period
	}
	var plan checkpoint.Plan
	sampledRun := *sampleMode != ""
	if sampledRun {
		var err error
		plan, err = checkpoint.ParseMode(*sampleMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atrsim:", err)
			os.Exit(2)
		}
		if *tracePath != "" || *o3Path != "" || *sample > 0 {
			fmt.Fprintln(os.Stderr, "atrsim: -sample-mode is incompatible with -trace/-o3view/-sample (observers watch a single detailed pipeline; a sampled run has many short-lived ones)")
			os.Exit(2)
		}
		if p.Litmus != "" {
			fmt.Fprintln(os.Stderr, "atrsim: -sample-mode is incompatible with litmus profiles (a litmus probe checks one architected outcome against the memory-model oracle; extrapolating statistics from sampled windows is meaningless for it)")
			os.Exit(2)
		}
	}

	var observer obs.Observer
	var closers []func() error
	if *tracePath != "" || *o3Path != "" {
		var jsonlW, o3W *os.File
		if *tracePath != "" {
			jsonlW = mustCreate(*tracePath)
			closers = append(closers, jsonlW.Close)
		}
		if *o3Path != "" {
			o3W = mustCreate(*o3Path)
			closers = append(closers, o3W.Close)
		}
		// *os.File nil-interface footgun: pass through an io.Writer-typed
		// nil only when the file was actually opened.
		switch {
		case jsonlW != nil && o3W != nil:
			observer.Tracer = obs.NewTracer(jsonlW, o3W)
		case jsonlW != nil:
			observer.Tracer = obs.NewTracer(jsonlW, nil)
		default:
			observer.Tracer = obs.NewTracer(nil, o3W)
		}
	}
	if *sample > 0 {
		observer.Sampler = obs.NewSampler(*sample)
	}

	prog := p.Generate()
	// Profile only the simulation itself, not program generation or
	// report/manifest writing, so hot-path work stands out.
	if *cpuProfile != "" {
		f := mustCreate(*cpuProfile)
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "atrsim: cpuprofile:", err)
			os.Exit(1)
		}
	}
	var (
		cpu *pipeline.CPU
		res pipeline.Result
		est checkpoint.Estimate
	)
	start := time.Now()
	if sampledRun {
		est = checkpoint.Run(cfg, prog, pipeline.SchedulerEvent, *n, plan)
		res = est.Result
	} else {
		cpu = pipeline.New(cfg, prog)
		cpu.Engine.TrackLifetimes()
		if observer.Enabled() {
			cpu.Observe(&observer)
		}
		res = cpu.Run(*n)
	}
	elapsed := time.Since(start)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		writeHeapProfile(*memProfile)
	}

	if observer.Tracer != nil {
		if err := observer.Tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "atrsim: trace:", err)
			os.Exit(1)
		}
	}
	for _, c := range closers {
		if err := c(); err != nil {
			fmt.Fprintln(os.Stderr, "atrsim: trace:", err)
			os.Exit(1)
		}
	}

	// Gate on model invariants before reporting anything as a success.
	// A sampled run has no surviving pipeline to check: each window CPU is
	// discarded after its statistics are differenced.
	if cpu != nil {
		if err := cpu.Engine.CheckInvariants(); err != nil {
			fmt.Fprintln(os.Stderr, "atrsim: INVARIANT VIOLATION:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark      %s (%s), %d static instructions\n", p.Name, p.Class, prog.Len())
	fmt.Printf("scheme         %v, %d physical registers/class, redefine delay %d\n",
		scheme, *regs, *delay)
	fmt.Printf("committed      %d instructions in %d cycles (IPC %.3f)\n",
		res.Committed, res.Cycles, res.IPC)
	fmt.Printf("branches       %.2f%% conditional accuracy, %.2f%% indirect\n",
		100*res.BranchAccuracy, 100*res.IndirectAccuracy)
	fmt.Printf("recovery       %d mispredicts, %d flushes, %d exceptions\n",
		res.Mispredicts, res.Flushes, res.Exceptions)
	fmt.Printf("memory         %.2f%% L1D hit rate\n", 100*res.L1DHitRate)
	fmt.Printf("renaming       %d stalls, %.1f regs live on average\n",
		res.RenameStalls, res.AvgRegsLive)

	if cpu != nil {
		led := cpu.Engine.Ledger
		iu, un, vu := led.StateFractions()
		nb, ne, at := led.RegionFractions()
		fmt.Printf("lifecycle      in-use %.1f%%, unused %.1f%%, verified-unused %.1f%%\n",
			100*iu, 100*un, 100*vu)
		fmt.Printf("regions        non-branch %.1f%%, non-except %.1f%%, atomic %.1f%%\n",
			100*nb, 100*ne, 100*at)
		gr, gc, gm := led.EventGaps()
		fmt.Printf("atomic gaps    rename->redefine %.1f, ->consume %.1f, ->commit %.1f cycles\n",
			gr, gc, gm)
		st := cpu.Engine.Stats
		fmt.Printf("releases       atr %d, nonspec-er %d, commit %d, flush %d (claims %d)\n",
			st.Get("release.atr"), st.Get("release.er"),
			st.Get("release.commit"), st.Get("release.flush"), st.Get("atr.claims"))
		if *verbose {
			fmt.Printf("\ncounters:\n%s", st.String())
		}
	}
	if sampledRun {
		fmt.Printf("sampled        %s: %d windows, %d detailed, %d fast-forwarded\n",
			est.Plan, est.Windows, est.DetailInstr, est.FFInstr)
		fmt.Printf("error bars     IPC ±%.2f%%, mispredict ±%.2f%%, branch acc ±%.2f%%, L1D hit ±%.2f%% (95%% CI)\n",
			100*est.RelErr.IPC, 100*est.RelErr.MispredictRate,
			100*est.RelErr.BranchAcc, 100*est.RelErr.L1DHitRate)
	}
	fmt.Printf("simulated at   %.0fk instructions/second\n",
		float64(res.Committed)/elapsed.Seconds()/1000)

	if observer.Sampler != nil && *samplesPath != "" {
		writeSamples(observer.Sampler, *samplesPath)
	}
	if *jsonPath != "" {
		var estp *checkpoint.Estimate
		if sampledRun {
			estp = &est
		}
		writeManifest(*jsonPath, p, prog.Len(), cfg, cpu, res, elapsed, &observer, *tracePath, *o3Path, estp)
	}
}

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atrsim:", err)
		os.Exit(1)
	}
	return f
}

func writeHeapProfile(path string) {
	f := mustCreate(path)
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "atrsim: memprofile:", err)
		os.Exit(1)
	}
}

func writeSamples(s *obs.Sampler, path string) {
	f := mustCreate(path)
	defer f.Close()
	var err error
	if strings.HasSuffix(path, ".json") {
		err = s.WriteJSON(f)
	} else {
		err = s.WriteCSV(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atrsim: samples:", err)
		os.Exit(1)
	}
}

func writeManifest(path string, p workload.Profile, static int, cfg config.Config,
	cpu *pipeline.CPU, res pipeline.Result, elapsed time.Duration,
	observer *obs.Observer, tracePath, o3Path string, est *checkpoint.Estimate) {
	m := obs.NewManifest()
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	m.Benchmark = obs.BenchmarkInfo{Name: p.Name, Class: p.Class, Seed: p.Seed, StaticInstrs: static}
	m.Config = cfg
	m.Result = obs.RunResult{
		Cycles: res.Cycles, Committed: res.Committed, IPC: res.IPC,
		Mispredicts: res.Mispredicts, Flushes: res.Flushes,
		Exceptions: res.Exceptions, Interrupts: res.Interrupts,
		RenameStalls: res.RenameStalls, BranchAccuracy: res.BranchAccuracy,
		IndirectAccuracy: res.IndirectAccuracy, L1DHitRate: res.L1DHitRate,
		AvgRegsLive: res.AvgRegsLive, Halted: res.Halted,
	}
	if cpu != nil {
		led := cpu.Engine.Ledger
		iu, un, vu := led.StateFractions()
		nb, ne, at := led.RegionFractions()
		gr, gc, gm := led.EventGaps()
		m.Ledger = obs.LedgerSummary{
			Completed: led.Completed(),
			InUse:     iu, Unused: un, VerifiedUnused: vu,
			NonBranch: nb, NonExcept: ne, Atomic: at,
			GapRedefine: gr, GapConsume: gc, GapCommit: gm,
			ConsumerMean: led.ConsumerHist.Mean(),
		}
		m.Counters = cpu.Engine.Stats.Snapshot()
		for name, v := range cpu.Stats.Snapshot() {
			m.Counters[name] = v
		}
	}
	if est != nil {
		m.Sample = est.Info()
	}
	m.Perf = obs.PerfInfo{
		WallSeconds:  elapsed.Seconds(),
		InstrPerSec:  float64(res.Committed) / elapsed.Seconds(),
		CyclesPerSec: float64(res.Cycles) / elapsed.Seconds(),
	}
	if observer.Sampler != nil {
		m.Samples = observer.Sampler.Samples()
	}
	if observer.Tracer != nil {
		uops, commits, releases := observer.Tracer.Counts()
		m.Trace = &obs.TraceInfo{
			JSONLPath: tracePath, O3Path: o3Path,
			Uops: uops, Commits: commits, Releases: releases,
		}
	}
	if err := m.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "atrsim: manifest:", err)
		os.Exit(1)
	}
	f := mustCreate(path)
	defer f.Close()
	if err := m.Encode(f); err != nil {
		fmt.Fprintln(os.Stderr, "atrsim: manifest:", err)
		os.Exit(1)
	}
}
