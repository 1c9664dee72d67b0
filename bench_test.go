// Package atr's top-level benchmarks regenerate every table and figure of
// the paper (run with `go test -bench=. -benchmem`). Each BenchmarkFigNN
// executes the corresponding experiment end to end and reports the figure's
// headline quantity as a custom metric, so `go test -bench Fig` reproduces
// the evaluation section. Microbenchmarks of the simulator's hot structures
// follow.
package atr

import (
	"context"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/core"
	"atr/internal/experiments"
	"atr/internal/isa"
	"atr/internal/logicsim"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/stats"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// benchInstr is the per-simulation instruction budget for figure benches;
// kept small so the full sweep finishes in minutes. Increase for tighter
// numbers (cmd/atrsweep -n takes any budget).
const benchInstr = 10_000

func BenchmarkFig01RFScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig1(r, io.Discard)
		b.ReportMetric(res.Avg64Ratio, "norm-ipc@64")
	}
}

func BenchmarkFig04Lifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig4(r, io.Discard)
		b.ReportMetric(100*res.IntUnused, "int-unused-%")
		b.ReportMetric(100*res.IntVerified, "int-verified-%")
	}
}

func BenchmarkFig06AtomicRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig6(r, io.Discard)
		b.ReportMetric(100*res.IntAtomic, "int-atomic-%")
		b.ReportMetric(100*res.FPAtomic, "fp-atomic-%")
	}
}

func BenchmarkFig10Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig10(r, io.Discard)
		b.ReportMetric(res.Avg[64][config.SchemeATR]["int"], "atr64-int-%")
		b.ReportMetric(res.Avg[64][config.SchemeNonSpecER]["int"], "er64-int-%")
		b.ReportMetric(res.Avg[224][config.SchemeATR]["int"], "atr224-int-%")
	}
}

func BenchmarkFig11RFSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig11(r, io.Discard)
		b.ReportMetric(res.IntAvg[0], "atr-int@64-%")
		b.ReportMetric(res.IntAvg[len(res.IntAvg)-1], "atr-int@280-%")
	}
}

func BenchmarkFig12ConsumerHist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig12(r, io.Discard)
		b.ReportMetric(res.AvgMean, "consumers/region")
	}
}

func BenchmarkFig13PipelineDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig13(r, io.Discard)
		b.ReportMetric(res.IntAvg[0]-res.IntAvg[2], "delay2-cost-pts")
	}
}

func BenchmarkFig14EventGaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig14(r, io.Discard)
		var redef, commit float64
		for _, v := range res.PerBench {
			redef += v[0]
			commit += v[2]
		}
		n := float64(len(res.PerBench))
		b.ReportMetric(redef/n, "to-redefine-cyc")
		b.ReportMetric(commit/n, "to-commit-cyc")
	}
}

func BenchmarkFig15Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchInstr)
		res := experiments.Fig15(r, io.Discard)
		b.ReportMetric(100*res.Reduction[config.SchemeATR], "atr-rf-reduction-%")
		b.ReportMetric(100*res.Reduction[config.SchemeCombined], "combined-rf-reduction-%")
	}
}

func BenchmarkLogicSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Logic(io.Discard)
		b.ReportMetric(float64(res.Naive.Gates), "gates")
		b.ReportMetric(float64(res.Naive.Levels), "levels")
	}
}

// ------------------------------------------------------- microbenchmarks

// BenchmarkPipeline measures end-to-end simulation throughput
// (instructions simulated per wall-clock second appear as ns/op / 20000).
func BenchmarkPipeline(b *testing.B) {
	for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
		b.Run(scheme.String(), func(b *testing.B) {
			p, _ := workload.ByName("exchange2")
			prog := p.Generate()
			cfg := config.GoldenCove().WithScheme(scheme).WithPhysRegs(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu := pipeline.New(cfg, prog)
				res := cpu.Run(20_000)
				b.ReportMetric(float64(res.Committed), "instructions")
			}
		})
	}
}

// BenchmarkRename measures the renaming engine alone: allocate, claim,
// consume, release.
func BenchmarkRename(b *testing.B) {
	for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeATR} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := config.GoldenCove().WithScheme(scheme).WithPhysRegs(128)
			e := core.NewEngine(cfg)
			br := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
			e.Rename(&br, 0)
			in := isa.NewInst(isa.OpALU, []isa.Reg{isa.R1}, []isa.Reg{isa.R2, isa.R1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := e.Rename(&in, uint64(i))
				for j := 0; j < out.NumSrcs; j++ {
					e.ConsumerIssued(out.Srcs[j], uint64(i))
				}
				e.ProducerCompleted(out.Dsts[0].New, uint64(i))
				e.RedefinerPrecommitted(out.Dsts[0], uint64(i))
				e.RedefinerCommitted(out.Dsts[0], uint64(i))
			}
		})
	}
}

func BenchmarkTAGEPredict(b *testing.B) {
	t := bpred.NewTAGE(bpred.TAGEConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 512)
		p := t.Predict(pc)
		t.Update(pc, p, i%3 != 0)
	}
}

func BenchmarkCacheHierarchy(b *testing.B) {
	h := cache.NewHierarchy(config.GoldenCove())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessData(uint64(i%100_000)*64, i%4 == 0, uint64(i))
	}
}

// BenchmarkEmulator times the functional emulator's StepInto, the call
// sampled runs fast-forward with.
func BenchmarkEmulator(b *testing.B) {
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	e := program.NewEmulator(prog)
	var rec program.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.StepInto(&rec) {
			e = program.NewEmulator(prog)
		}
	}
}

func BenchmarkFlushWalk(b *testing.B) {
	// One misprediction recovery per iteration: fill a wrong path, flush.
	p := workload.Micro(77)
	p.BranchBias = 0.5 // mispredict-heavy
	prog := p.Generate()
	cfg := config.GoldenCove().WithScheme(config.SchemeCombined).WithPhysRegs(96)
	cpu := pipeline.New(cfg, prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Run(uint64((i + 1) * 200))
	}
}

func BenchmarkBulkMarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logicsim.BuildBulkMark(8, 16)
	}
}

// ------------------------------------------- scheduler microbenchmarks

// ilpKernel is a wide independent-operation loop: every ALU op in the body
// writes a distinct register from a loop-invariant source, so the scheduler
// sees full-width issue every cycle.
func ilpKernel() *program.Program {
	b := program.NewBuilder(11, 12)
	b.Label("top")
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6,
		isa.R7, isa.R8, isa.R9, isa.R10, isa.R11, isa.R12}
	for i, r := range regs {
		b.ALU(r, isa.R0, isa.RegInvalid, int64(i+1))
	}
	b.Jump("top")
	return b.MustBuild()
}

// chainKernel is a serial dependence chain: each op reads the previous one's
// result, so at most one instruction is ready per cycle and the wakeup path
// dominates.
func chainKernel() *program.Program {
	b := program.NewBuilder(21, 22)
	b.Label("top")
	for i := 0; i < 12; i++ {
		b.ALU(isa.R1, isa.R1, isa.RegInvalid, 1)
	}
	b.Jump("top")
	return b.MustBuild()
}

// storeKernel alternates stores with loads from the same addresses, keeping
// the store queue full and exercising STA/STD split capture and
// store-to-load forwarding on every iteration.
func storeKernel() *program.Program {
	b := program.NewBuilder(31, 32)
	b.Label("top")
	for i := 0; i < 6; i++ {
		b.ALU(isa.R1, isa.R1, isa.RegInvalid, 1)
		b.Store(isa.R0, isa.R1, 0x1000, 1<<16, int64(i)*8)
		b.Load(isa.Reg(int(isa.R2)+i), isa.R0, 0x1000, 1<<16, int64(i)*8)
	}
	b.Jump("top")
	return b.MustBuild()
}

// BenchmarkScheduler measures the pipeline's scheduling hot paths on three
// kernel shapes, for both the event-driven scheduler and the scan reference.
// One op is 1000 committed instructions on a persistent CPU, so allocs/op is
// the steady-state allocation rate (the event scheduler's is asymptotically
// zero; TestSteadyStateZeroAlloc enforces it exactly).
func BenchmarkScheduler(b *testing.B) {
	kernels := []struct {
		name string
		prog *program.Program
	}{
		{"ilp", ilpKernel()},
		{"chain", chainKernel()},
		{"stores", storeKernel()},
	}
	scheds := []struct {
		name string
		kind pipeline.SchedulerKind
	}{
		{"event", pipeline.SchedulerEvent},
		{"scan", pipeline.SchedulerScan},
	}
	for _, k := range kernels {
		for _, s := range scheds {
			b.Run(k.name+"/"+s.name, func(b *testing.B) {
				cpu := pipeline.NewWithScheduler(config.GoldenCove(), k.prog, s.kind)
				b.ReportAllocs()
				b.ResetTimer()
				var target uint64
				var cycles uint64
				for i := 0; i < b.N; i++ {
					target += 1000
					cycles = cpu.Run(target).Cycles
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(cycles)/sec, "cycles/s")
				}
			})
		}
	}
}

// benchFig10 runs sub-benchmark name over the Figure 10 sweep grid — every
// benchmark profile at both RF sizes under every release scheme, on the
// ROB-512 Golden Cove configuration — through the sweep engine pinned to
// one worker, with a fresh RunFunc from fn per iteration, and reports the
// simulator's aggregate throughput. Serial execution keeps comparisons
// free of parallel-scheduling noise. A nil RunFunc is the engine's
// production configuration: units sharing a profile run as lockstep lanes
// over one program image.
func benchFig10(b *testing.B, name string, fn func() sweep.RunFunc) {
	b.Run(name, func(b *testing.B) {
		g := sweep.Fig10Grid(benchInstr)
		var instr, cycles uint64
		for i := 0; i < b.N; i++ {
			m, err := sweep.New(sweep.Options{Workers: 1}).Execute(context.Background(), g, fn())
			if err != nil {
				b.Fatal(err)
			}
			instr += m.Totals.Committed
			cycles += m.Totals.Cycles
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(cycles)/sec, "cycles/s")
			b.ReportMetric(float64(instr)/sec, "instr/s")
		}
	})
}

// scanRun is a solo RunFunc on the scan reference scheduler, generating
// each profile's program once as the engine's own run functions do.
func scanRun() sweep.RunFunc {
	var mu sync.Mutex
	progs := make(map[string]*program.Program)
	return func(_ context.Context, u sweep.Unit) (pipeline.Result, error) {
		mu.Lock()
		prog, ok := progs[u.Profile.Name]
		if !ok {
			prog = u.Profile.Generate()
			progs[u.Profile.Name] = prog
		}
		mu.Unlock()
		return pipeline.NewWithScheduler(u.Config, prog, pipeline.SchedulerScan).Run(benchInstr), nil
	}
}

// BenchmarkFig10Throughput measures end-to-end simulator throughput over the
// full Figure 10 sweep grid: the engine's production path (event) against
// the scan reference scheduler running every unit solo (scan) — the
// headline number for the event-driven scheduler rework.
func BenchmarkFig10Throughput(b *testing.B) {
	benchFig10(b, "event", func() sweep.RunFunc { return nil })
	benchFig10(b, "scan", scanRun)
}

// BenchmarkBatchedSweep compares solo (K=1, sweep.Sim) and lockstep-grouped
// (K=4, the engine's own path) execution of the Figure 10 grid on the
// event scheduler: identical units, identical results
// (TestSweepBatchDeterminism proves byte-identity), the only difference
// being whether profile-sharing units run as lanes over one shared program
// image. The K=4/K=1 ratio is the locality effect of lockstep lanes in
// isolation.
func BenchmarkBatchedSweep(b *testing.B) {
	benchFig10(b, "K=1", func() sweep.RunFunc { return sweep.Sim(benchInstr) })
	benchFig10(b, "K=4", func() sweep.RunFunc { return nil })
}

// BenchmarkSampledThroughput is the CI gate for sampled execution: the
// exact and sampled sub-benchmarks simulate the same 2M-instruction gcc run
// in one invocation, each reporting simulated cycles per wall second, and
// CI requires the sampled rate to be at least 5x the exact rate. Sampled
// cycles are the extrapolated estimate, which tracks the exact count to
// within the plan's error bars, so the cycles/s ratio is the wall-clock
// speedup.
func BenchmarkSampledThroughput(b *testing.B) {
	const instr = 2_000_000
	plan := checkpoint.Plan{Period: 100_000, Window: 2000, Warmup: 500}
	p, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	prog := p.Generate()
	cfg := config.GoldenCove().WithScheme(config.SchemeCombined).WithPhysRegs(64)

	b.Run("exact", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res := pipeline.New(cfg, prog).Run(instr)
			cycles += res.Cycles
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(cycles)/sec, "cycles/s")
		}
	})
	b.Run("sampled", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			est := checkpoint.Run(cfg, prog, pipeline.SchedulerEvent, instr, plan)
			cycles += est.Result.Cycles
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(cycles)/sec, "cycles/s")
		}
	})
}

// BenchmarkCounters measures the bookkeeping hot paths that run once or
// more per simulated instruction: pre-resolved handle increments (the path
// the engine and pipeline use), the string-keyed compatibility path, and
// folding one register lifetime into the ledger. All three must be
// allocation-free — CI fails the build if any reports a nonzero allocs/op.
func BenchmarkCounters(b *testing.B) {
	b.Run("handle", func(b *testing.B) {
		c := stats.NewCounters()
		h := c.Handle("release.atr")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Add(h, 1)
		}
		if c.Value(h) != uint64(b.N) {
			b.Fatalf("counter = %d, want %d", c.Value(h), b.N)
		}
	})
	b.Run("string", func(b *testing.B) {
		c := stats.NewCounters()
		c.Inc("release.atr", 0) // intern outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc("release.atr", 1)
		}
	})
	b.Run("ledger", func(b *testing.B) {
		led := stats.NewLifetimeLedger()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := uint64(i)
			l := stats.RegLifetime{
				Renamed: c, LastConsumed: c + 3, Redefined: c + 4,
				Precommitted: c + 6, Committed: c + 8,
				Consumers: 2, Region: stats.RegionAtomic,
			}
			led.Record(&l)
		}
		if led.Completed() != uint64(b.N) {
			b.Fatalf("ledger completed = %d, want %d", led.Completed(), b.N)
		}
	})
}

// BenchmarkSweepWarm measures experiment-runner throughput on a small
// Fig 10-shaped grid (four integer profiles × two RF sizes × all schemes)
// with a fresh runner per iteration: program generation is amortized by the
// runner's shared program cache, so this tracks the sweep-side win of
// generating each profile once instead of once per configuration.
func BenchmarkSweepWarm(b *testing.B) {
	var ps []workload.Profile
	for _, p := range workload.Profiles() {
		if p.Class == "int" {
			ps = append(ps, p)
			if len(ps) == 4 {
				break
			}
		}
	}
	var cfgs []config.Config
	for _, n := range []int{64, 224} {
		for _, s := range config.Schemes() {
			cfgs = append(cfgs, config.GoldenCove().WithPhysRegs(n).WithScheme(s))
		}
	}
	b.ResetTimer()
	var runs int
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(4000)
		r.Prefetch(ps, cfgs)
		var instr uint64
		runs, instr, cycles = r.Totals()
		_ = instr
	}
	if runs != len(ps)*len(cfgs) {
		b.Fatalf("runs = %d, want %d", runs, len(ps)*len(cfgs))
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)*float64(b.N)/sec, "cycles/s")
	}
}

// TestEmitBenchManifest writes BENCH_sim.json — a run manifest recording
// simulator throughput on the reference workload — when ATR_BENCH_JSON=1
// is set (e.g. by CI), so benchmark results become diffable artifacts.
func TestEmitBenchManifest(t *testing.T) {
	if os.Getenv("ATR_BENCH_JSON") == "" {
		t.Skip("set ATR_BENCH_JSON=1 to emit BENCH_sim.json")
	}
	p, _ := workload.ByName("exchange2")
	cfg := config.GoldenCove().WithScheme(config.SchemeCombined).WithPhysRegs(64)
	cpu := pipeline.New(cfg, p.Generate())
	sampler := obs.NewSampler(1000)
	cpu.Observe(&obs.Observer{Sampler: sampler})
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	res := cpu.Run(20_000)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	m := obs.NewManifest()
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	m.Benchmark = obs.BenchmarkInfo{Name: p.Name, Class: p.Class, Seed: p.Seed}
	m.Config = cfg
	m.Result = obs.RunResult{
		Cycles: res.Cycles, Committed: res.Committed, IPC: res.IPC,
		Mispredicts: res.Mispredicts, Flushes: res.Flushes,
		RenameStalls: res.RenameStalls, BranchAccuracy: res.BranchAccuracy,
		IndirectAccuracy: res.IndirectAccuracy, L1DHitRate: res.L1DHitRate,
		AvgRegsLive: res.AvgRegsLive, Halted: res.Halted,
	}
	m.Perf = obs.PerfInfo{
		WallSeconds:    elapsed.Seconds(),
		InstrPerSec:    float64(res.Committed) / elapsed.Seconds(),
		CyclesPerSec:   float64(res.Cycles) / elapsed.Seconds(),
		AllocsPerInstr: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Committed),
	}
	m.Samples = sampler.Samples()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := m.Encode(f); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_sim.json: %.0f instr/s, IPC %.3f", m.Perf.InstrPerSec, res.IPC)
}
