package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/power"
	"atr/internal/program"
	"atr/internal/workload"
)

// schedRun is everything two runs of one configuration are compared on.
type schedRun struct {
	res      Result
	counters string         // pipeline and release-engine counter dumps
	digest   string         // SHA-256 of the complete JSONL event trace
	activity power.Activity // the power model's event counts
	samples  []obs.Sample   // interval series; nil without a sampler
	bounds   []WindowStats  // counters at each slice boundary; nil unsliced
	skipped  uint64         // cycles the clock jumped instead of stepping
}

// runOpts selects how runSched drives one run.
type runOpts struct {
	kind      SchedulerKind
	lifetimes bool   // keep the register-lifetime ledger
	sample    uint64 // sampler interval in cycles; 0 attaches no sampler
	slice     uint64 // RunFor cycle budget per call; 0 runs unsliced
}

// runSched executes prog under cfg as o selects, with an event tracer
// attached, and returns the run summary, the full counter dump (pipeline and
// release engine), a digest of the complete JSONL event trace (uop events
// and release events), the power model's activity counts and the sample
// series. A run with lifetimes must also have recorded some, and a sliced
// run must end every unfinished slice exactly its budget later.
func runSched(t *testing.T, cfg config.Config, prog *program.Program, n uint64, o runOpts) schedRun {
	t.Helper()
	h := sha256.New()
	cpu := NewWithScheduler(cfg, prog, o.kind)
	if o.lifetimes {
		cpu.Engine.TrackLifetimes()
	}
	ob := &obs.Observer{Tracer: obs.NewTracer(h, nil)}
	if o.sample > 0 {
		ob.Sampler = obs.NewSampler(o.sample)
	}
	cpu.Observe(ob)
	var res Result
	var bounds []WindowStats
	if o.slice == 0 {
		res = cpu.Run(n)
	} else {
		for start := cpu.cycle; !cpu.RunFor(n, o.slice); start = cpu.cycle {
			if cpu.cycle-start != o.slice {
				t.Fatalf("a %d-cycle RunFor slice advanced %d cycles", o.slice, cpu.cycle-start)
			}
			bounds = append(bounds, cpu.WindowStats())
		}
		res = cpu.Finish()
	}
	if err := ob.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o.lifetimes && cpu.Engine.Ledger.Completed() == 0 {
		t.Fatal("lifetime accounting on, but no lifetime completed")
	}
	r := schedRun{
		res:      res,
		counters: cpu.Stats.String() + cpu.Engine.Stats.String(),
		digest:   hex.EncodeToString(h.Sum(nil)),
		activity: cpu.Activity(),
		bounds:   bounds,
		skipped:  cpu.skipped,
	}
	if ob.Sampler != nil {
		r.samples = ob.Sampler.Samples()
	}
	return r
}

// compareRuns asserts that run a is bit-identical to run b: same Result,
// same counter set (which includes release.atr/er/commit/flush, atr.claims,
// rename.alloc, and lsq.forwards), the same event trace byte-for-byte, the
// same activity counts and the same sample series.
func compareRuns(t *testing.T, name, aName, bName string, a, b schedRun) {
	t.Helper()
	if a.res != b.res {
		t.Errorf("%s: Result diverged\n %s: %+v\n %s: %+v", name, aName, a.res, bName, b.res)
	}
	if a.counters != b.counters {
		t.Errorf("%s: counters diverged\n %s: %s\n %s: %s", name, aName, a.counters, bName, b.counters)
	}
	if a.digest != b.digest {
		t.Errorf("%s: trace digest diverged (%s %s != %s %s)", name, aName, a.digest, bName, b.digest)
	}
	if a.activity != b.activity {
		t.Errorf("%s: activity diverged\n %s: %+v\n %s: %+v", name, aName, a.activity, bName, b.activity)
	}
	if !slices.Equal(a.samples, b.samples) {
		t.Errorf("%s: sample series diverged (%s %d samples, %s %d)", name, aName, len(a.samples), bName, len(b.samples))
	}
}

// compareSchedulers asserts that the event scheduler, whose clock jumps
// over quiescent cycles, is bit-identical to the reference scan scheduler,
// which steps every cycle, for one configuration driven as o selects (o's
// kind is ignored). The scan run is always unsliced. The event run must
// have jumped, so that no case passes vacuously.
func compareSchedulers(t *testing.T, name string, cfg config.Config, prog *program.Program, n uint64, o runOpts) {
	t.Helper()
	o.kind = SchedulerEvent
	ev := runSched(t, cfg, prog, n, o)
	o.kind, o.slice = SchedulerScan, 0
	sc := runSched(t, cfg, prog, n, o)
	compareRuns(t, name, "event", "scan", ev, sc)
	if ev.skipped == 0 {
		t.Errorf("%s: the event run never jumped its clock", name)
	}
	if sc.skipped != 0 {
		t.Errorf("%s: the scan run jumped %d cycles", name, sc.skipped)
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
					compareSchedulers(t, name, cfg, prog, instrs, runOpts{})
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
				compareSchedulers(t, scheme.String(), testConfig().WithScheme(scheme), prog, 2500, runOpts{})
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
					compareSchedulers(t, name, cfg, prog, 3000, runOpts{})
				}
			}
		})
	}
}

// TestSteadyStateZeroAlloc verifies the tentpole's allocation goal: once
// warm, the event-driven pipeline allocates nothing — uops, wait list
// entries, checkpoints, and (when tracked) lifetime records all recycle
// through free lists. It drives the pipeline both by step() and through
// RunFor, the loop every caller uses, whose quiescence checks and clock
// jumps must not allocate either.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	drives := []struct {
		name string
		run  func(cpu *CPU, cycles int)
	}{
		{"step", func(cpu *CPU, cycles int) {
			for i := 0; i < cycles; i++ {
				cpu.step()
			}
		}},
		{"RunFor", func(cpu *CPU, cycles int) {
			if cpu.RunFor(^uint64(0), uint64(cycles)) {
				t.Fatal("program halted during measurement")
			}
		}},
	}
	for _, d := range drives {
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
			skipped := cpu.skipped
			avg := testing.AllocsPerRun(10, func() { d.run(cpu, 2_000) })
			if avg > 1 { // tolerate a stray map-growth rehash, nothing per-cycle
				t.Errorf("%s, lifetimes %v: steady-state allocations: %.2f per 2000 cycles, want 0", d.name, lifetimes, avg)
			}
			if d.name == "RunFor" && cpu.skipped == skipped {
				t.Errorf("lifetimes %v: RunFor never jumped its clock while measured", lifetimes)
			}
		}
	}
}

// compareLifetimes asserts that lifetime accounting is analysis only: a run
// that keeps the register-lifetime ledger produces the same Result, the
// same counters and the same event trace as one that does not.
func compareLifetimes(t *testing.T, name string, cfg config.Config, prog *program.Program, n uint64) {
	t.Helper()
	off := runSched(t, cfg, prog, n, runOpts{})
	on := runSched(t, cfg, prog, n, runOpts{lifetimes: true})
	compareRuns(t, name, "lifetimes on", "lifetimes off", on, off)
}

// variant is a configuration change applied on top of testConfig.
type variant struct {
	name string
	set  func(*config.Config)
}

// pathVariants have release or recovery paths of their own, each with its
// own timing: move elimination, a pipelined redefine signal (delivered by
// Engine.Tick) and a checkpoint budget (recovery by forward replay).
var pathVariants = []variant{
	{"moveelim", func(c *config.Config) { c.MoveElimination = true }},
	{"delay2", func(c *config.Config) { c.RedefineDelay = 2 }},
	{"budget2", func(c *config.Config) { c.CheckpointBudget = 2 }},
}

// TestLifetimeParity: every benchmark profile under every release scheme,
// both recovery styles, and the configurations with their own release
// paths — move elimination, both interrupt modes, a pipelined redefine
// signal and a checkpoint budget — runs bit-identically with lifetime
// accounting on and off.
func TestLifetimeParity(t *testing.T) {
	variants := append([]variant{
		{"checkpoint", func(c *config.Config) {}},
		{"walk", func(c *config.Config) { c.WalkRecovery = true }},
		{"drain", func(c *config.Config) {
			c.InterruptMode, c.InterruptInterval, c.InterruptCost = config.InterruptDrain, 500, 40
		}},
		{"flush", func(c *config.Config) {
			c.InterruptMode, c.InterruptInterval, c.InterruptCost = config.InterruptFlush, 500, 40
		}},
	}, pathVariants...)
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
