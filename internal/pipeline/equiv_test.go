package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/program"
	"atr/internal/workload"
)

// runSched executes prog under cfg with the given scheduler implementation,
// with or without lifetime accounting, and returns the run summary, the full
// counter dump (pipeline and release engine), and a digest of the complete
// JSONL event trace (uop events and release events). A run with lifetimes
// must also have recorded some.
func runSched(t *testing.T, cfg config.Config, prog *program.Program, n uint64, kind SchedulerKind, lifetimes bool) (Result, string, string) {
	t.Helper()
	h := sha256.New()
	cpu := NewWithScheduler(cfg, prog, kind)
	if lifetimes {
		cpu.Engine.TrackLifetimes()
	}
	cpu.Observe(&obs.Observer{Tracer: obs.NewTracer(h, nil)})
	res := cpu.Run(n)
	if err := cpu.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if lifetimes && cpu.Engine.Ledger.Completed() == 0 {
		t.Fatal("lifetime accounting on, but no lifetime completed")
	}
	return res, cpu.Stats.String() + cpu.Engine.Stats.String(), hex.EncodeToString(h.Sum(nil))
}

// compareSchedulers asserts that the event scheduler is bit-identical to the
// reference scan scheduler for one configuration: same Result, same counter
// set (which includes release.atr/er/commit/flush, atr.claims, rename.alloc,
// and lsq.forwards), and the same event trace byte-for-byte.
func compareSchedulers(t *testing.T, name string, cfg config.Config, prog *program.Program, n uint64) {
	t.Helper()
	evRes, evCtr, evDig := runSched(t, cfg, prog, n, SchedulerEvent, false)
	scRes, scCtr, scDig := runSched(t, cfg, prog, n, SchedulerScan, false)
	if evRes != scRes {
		t.Errorf("%s: Result diverged\n event: %+v\n scan:  %+v", name, evRes, scRes)
	}
	if evCtr != scCtr {
		t.Errorf("%s: counters diverged\n event: %s\n scan:  %s", name, evCtr, scCtr)
	}
	if evDig != scDig {
		t.Errorf("%s: trace digest diverged (event %s != scan %s)", name, evDig, scDig)
	}
}

// TestSchedulerEquivalence is the seed oracle for the event-driven
// scheduler: every benchmark profile, under every release scheme and both
// recovery styles, must produce bit-identical results, counters, and event
// traces with the event scheduler and the reference scan scheduler.
func TestSchedulerEquivalence(t *testing.T) {
	const instrs = 2000
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range config.Schemes() {
				for _, walk := range []bool{false, true} {
					cfg := testConfig().WithScheme(scheme)
					cfg.WalkRecovery = walk
					name := scheme.String() + "/checkpoint"
					if walk {
						name = scheme.String() + "/walk"
					}
					compareSchedulers(t, name, cfg, prog, instrs)
				}
			}
		})
	}
}

// TestSchedulerEquivalenceLitmus extends the bit-identity oracle to the
// litmus profile family: forwarding stalls, squashed wrong-path stores, and
// STD capture ordering must be cycle-identical between the event and scan
// schedulers on the memory-ordering probes, not just statistically similar.
func TestSchedulerEquivalenceLitmus(t *testing.T) {
	for _, p := range workload.LitmusProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
				compareSchedulers(t, scheme.String(), testConfig().WithScheme(scheme), prog, 2500)
			}
		})
	}
}

// TestSchedulerEquivalenceInterrupts extends the oracle to asynchronous
// interrupts: the squash (flush mode) and drain paths must unlink squashed
// and drained uops from wait lists, ready queues, and the completion wheel
// exactly as the scan scheduler observes them.
func TestSchedulerEquivalenceInterrupts(t *testing.T) {
	profiles := []string{"perlbench", "mcf", "bwaves", "povray"}
	for _, pname := range profiles {
		p, ok := workload.ByName(pname)
		if !ok {
			t.Fatalf("unknown profile %q", pname)
		}
		p, pname := p, pname
		t.Run(pname, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, mode := range []config.InterruptMode{config.InterruptDrain, config.InterruptFlush} {
				for _, scheme := range config.Schemes() {
					cfg := testConfig().WithScheme(scheme)
					cfg.InterruptMode = mode
					cfg.InterruptInterval = 500
					cfg.InterruptCost = 40
					name := scheme.String() + "/flush"
					if mode == config.InterruptDrain {
						name = scheme.String() + "/drain"
					}
					compareSchedulers(t, name, cfg, prog, 3000)
				}
			}
		})
	}
}

// TestSteadyStateZeroAlloc verifies the tentpole's allocation goal: once
// warm, stepping the event-driven pipeline allocates nothing — uops, wait
// list entries, checkpoints, and (when tracked) lifetime records all
// recycle through free lists.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	for _, lifetimes := range []bool{false, true} {
		cpu := New(testConfig(), prog)
		if lifetimes {
			cpu.Engine.TrackLifetimes()
		}
		for i := 0; i < 250_000; i++ {
			if cpu.robEmptyAndHalted() {
				t.Fatal("program halted during warmup")
			}
			cpu.step()
		}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 2_000; i++ {
				cpu.step()
			}
		})
		if avg > 1 { // tolerate a stray map-growth rehash, nothing per-cycle
			t.Errorf("lifetimes %v: steady-state allocations: %.2f per 2000 cycles, want 0", lifetimes, avg)
		}
	}
}

// compareLifetimes asserts that lifetime accounting is analysis only: a run
// that keeps the register-lifetime ledger produces the same Result, the
// same counters and the same event trace as one that does not.
func compareLifetimes(t *testing.T, name string, cfg config.Config, prog *program.Program, n uint64) {
	t.Helper()
	offRes, offCtr, offDig := runSched(t, cfg, prog, n, SchedulerEvent, false)
	onRes, onCtr, onDig := runSched(t, cfg, prog, n, SchedulerEvent, true)
	if onRes != offRes {
		t.Errorf("%s: Result diverged\n lifetimes on:  %+v\n lifetimes off: %+v", name, onRes, offRes)
	}
	if onCtr != offCtr {
		t.Errorf("%s: counters diverged\n lifetimes on:  %s\n lifetimes off: %s", name, onCtr, offCtr)
	}
	if onDig != offDig {
		t.Errorf("%s: trace digest diverged (lifetimes on %s != off %s)", name, onDig, offDig)
	}
}

// TestLifetimeParity: every benchmark profile under every release scheme,
// both recovery styles, and the configurations with their own release
// paths — move elimination, both interrupt modes, a pipelined redefine
// signal and a checkpoint budget — runs bit-identically with lifetime
// accounting on and off.
func TestLifetimeParity(t *testing.T) {
	variants := []struct {
		name string
		set  func(*config.Config)
	}{
		{"checkpoint", func(c *config.Config) {}},
		{"walk", func(c *config.Config) { c.WalkRecovery = true }},
		{"moveelim", func(c *config.Config) { c.MoveElimination = true }},
		{"drain", func(c *config.Config) {
			c.InterruptMode, c.InterruptInterval, c.InterruptCost = config.InterruptDrain, 500, 40
		}},
		{"flush", func(c *config.Config) {
			c.InterruptMode, c.InterruptInterval, c.InterruptCost = config.InterruptFlush, 500, 40
		}},
		{"delay2", func(c *config.Config) { c.RedefineDelay = 2 }},
		{"budget2", func(c *config.Config) { c.CheckpointBudget = 2 }},
	}
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog := p.Generate()
			for _, scheme := range config.Schemes() {
				for _, v := range variants {
					cfg := testConfig().WithScheme(scheme)
					v.set(&cfg)
					compareLifetimes(t, scheme.String()+"/"+v.name, cfg, prog, 2000)
				}
			}
		})
	}
}
