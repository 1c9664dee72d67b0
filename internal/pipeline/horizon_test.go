package pipeline

import (
	"fmt"
	"slices"
	"testing"

	"atr/internal/config"
	"atr/internal/workload"
)

// The clock jump's bounds each get an equivalence case of their own: every
// event run below jumps (compareSchedulers checks it) and must still be
// bit-identical to the scan scheduler, which steps every cycle. The
// interrupt bound is covered by TestSchedulerEquivalenceInterrupts, and the
// fetch-hold and rename-ready bounds by every case.

// TestSchedulerEquivalencePaths: move elimination, a pipelined redefine
// signal (whose delivery cycle bounds the jump) and a checkpoint budget run
// bit-identically under both schedulers. On cam4, fotonik3d and blender a
// delayed signal falls due inside an idle span, so a jump that ignored it
// would move an ATR release to a later cycle.
func TestSchedulerEquivalencePaths(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "xz", "deepsjeng", "cam4", "fotonik3d", "blender", "lbm"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range config.Schemes() {
				for _, v := range pathVariants {
					cfg := testConfig().WithScheme(scheme)
					v.set(&cfg)
					compareSchedulers(t, scheme.String()+"/"+v.name, cfg, prog, 2000, runOpts{})
				}
			}
		})
	}
}

// TestSchedulerEquivalenceSampler: the sampler records after the clock
// advances, so a jump stops one cycle short of each boundary. The sample
// series must match the scan scheduler's sample for sample.
func TestSchedulerEquivalenceSampler(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "xz", "lbm"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
				compareSchedulers(t, scheme.String(), testConfig().WithScheme(scheme), prog, 3000, runOpts{sample: 150})
			}
		})
	}
}

// TestSchedulerEquivalenceSliced: a jump never crosses the end of a RunFor
// slice. Event runs sliced at 7 and 4096 cycles must match an unsliced scan
// run, and their counters at every slice boundary must match a scan run
// sliced the same way.
func TestSchedulerEquivalenceSliced(t *testing.T) {
	for _, name := range []string{"mcf", "perlbench", "bwaves"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
				cfg := testConfig().WithScheme(scheme)
				full := runSched(t, cfg, prog, 3000, runOpts{kind: SchedulerScan})
				for _, slice := range []uint64{7, 4096} {
					name := fmt.Sprintf("%s/%d", scheme, slice)
					ev := runSched(t, cfg, prog, 3000, runOpts{kind: SchedulerEvent, slice: slice})
					sc := runSched(t, cfg, prog, 3000, runOpts{kind: SchedulerScan, slice: slice})
					compareRuns(t, name, "sliced event", "unsliced scan", ev, full)
					if len(ev.bounds) == 0 || !slices.Equal(ev.bounds, sc.bounds) {
						t.Errorf("%s: state at the %d slice boundaries diverged from the scan run's %d",
							name, len(ev.bounds), len(sc.bounds))
					}
					if ev.skipped == 0 {
						t.Errorf("%s: the event run never jumped its clock", name)
					}
				}
			}
		})
	}
}

// TestSchedulerEquivalenceOverflow: a DRAM latency beyond the completion
// wheel's horizon parks fills in the overflow list, which migrates into the
// wheel once per revolution, so a jump stops at each migration. No Fig 10
// run reaches the overflow list, so this case forces it.
func TestSchedulerEquivalenceOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.MemLatency = wheelSize + wheelSize/2
	for _, name := range []string{"mcf", "gcc", "lbm"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			cpu := New(cfg, prog)
			parked := false
			for !parked && !cpu.RunFor(1000, 64) {
				parked = len(cpu.ev.overflow) > 0
			}
			if !parked {
				t.Fatal("no completion reached the overflow list")
			}
			for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
				compareSchedulers(t, scheme.String(), cfg.WithScheme(scheme), prog, 2000, runOpts{})
			}
		})
	}
}

// TestClockJumpShare pins the mechanism the way the allocation ceilings
// pin the hot path, independently of the machine: cold-start Fig 10 runs
// of the integer profiles spend most of their cycles waiting on DRAM with
// no stage able to act, and the event scheduler must jump over at least
// 70% of them. A per-cycle side effect that silently disables the jump
// fails here although every equivalence suite still passes. The scan
// scheduler never jumps.
func TestClockJumpShare(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "omnetpp", "x264"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, regs := range []int{64, 224} {
				for _, scheme := range config.Schemes() {
					cpu := New(config.GoldenCove().WithPhysRegs(regs).WithScheme(scheme), prog)
					res := cpu.Run(40_000)
					if share := float64(cpu.skipped) / float64(res.Cycles); share < 0.7 {
						t.Errorf("%d/%s: jumped %d of %d cycles (%.1f%%), want at least 70%%",
							regs, scheme, cpu.skipped, res.Cycles, 100*share)
					}
				}
			}
			scan := NewWithScheduler(config.GoldenCove().WithPhysRegs(64), prog, SchedulerScan)
			scan.Run(5_000)
			if scan.skipped != 0 {
				t.Errorf("the scan scheduler jumped %d cycles", scan.skipped)
			}
		})
	}
}

// TestWatchdogSameCycle: the deadlock watchdog bounds the jump, so a
// machine that can never commit again panics at the same cycle, with the
// same message, whether its clock jumps or steps.
func TestWatchdogSameCycle(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	panicked := func(kind SchedulerKind) (msg string, skipped uint64) {
		cpu := NewWithScheduler(testConfig(), prog, kind)
		cpu.fetchHold = ^uint64(0) // fetch never resumes, so nothing commits
		defer func() {
			if r := recover(); r != nil {
				msg, skipped = fmt.Sprint(r), cpu.skipped
			}
		}()
		cpu.Run(1)
		return "", 0
	}
	ev, skipped := panicked(SchedulerEvent)
	sc, _ := panicked(SchedulerScan)
	if ev == "" || ev != sc {
		t.Errorf("watchdog diverged:\n event: %s\n scan:  %s", ev, sc)
	}
	if skipped == 0 {
		t.Error("the event run never jumped its clock")
	}
}
