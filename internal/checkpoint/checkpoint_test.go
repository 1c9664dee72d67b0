package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/workload"
)

func testConfig() config.Config {
	return config.GoldenCove().WithScheme(config.SchemeCombined).WithPhysRegs(64)
}

func TestParseMode(t *testing.T) {
	p, err := ParseMode("systematic:100000/2000/500")
	if err != nil {
		t.Fatalf("ParseMode: %v", err)
	}
	if p != (Plan{Period: 100000, Window: 2000, Warmup: 500}) {
		t.Fatalf("ParseMode = %+v", p)
	}
	if p.String() != "systematic:100000/2000/500" {
		t.Fatalf("String = %q", p.String())
	}
	for _, bad := range []string{
		"",
		"systematic",
		"systematic:1000",
		"systematic:1000/2000/500", // window+warmup > period
		"systematic:1000/0/0",      // empty window
		"random:1000/100/10",
		"systematic:a/b/c",
		"systematic:1000/200/50/junk", // trailing text
		"systematic:1000/200/50 ",
		"systematic: 1000/200/50", // space after the colon
		"systematic:1000/ 200/50",
		"systematic:01000/200/50", // leading zeros
		"systematic:1000/200/050",
		"systematic:+1000/200/50",
		"systematic:-1000/200/50",
		"Systematic:1000/200/50",
		"systematic:100000/18446744073709551615/1", // warmup+window wraps
		"systematic:100000/1/18446744073709551615",
		"systematic:18446744073709551615/18446744073709551615/1",
		"systematic:100000/18446744073709551616/1", // out of range
	} {
		_, err := ParseMode(bad)
		var me *ModeError
		if !errors.As(err, &me) || me.Mode != bad {
			t.Errorf("ParseMode(%q) = %v, want a *ModeError naming it", bad, err)
		}
	}
	for _, good := range []string{
		"systematic:1000/200/50",
		"systematic:1000/1000/0", // the window fills the period
		"systematic:18446744073709551615/1/18446744073709551614",
	} {
		p, err := ParseMode(good)
		if err != nil || p.String() != good {
			t.Errorf("ParseMode(%q) = %v, %v", good, p, err)
		}
	}
}

// emulatorAt returns a fresh emulator for prog that has stepped depth
// instructions (fewer if the program halts first).
func emulatorAt(prog *program.Program, depth uint64) *program.Emulator {
	em := program.NewEmulator(prog)
	var rec program.Record
	for i := uint64(0); i < depth && em.StepInto(&rec); i++ {
	}
	return em
}

// TestPrimedWindowMatchesOracle checks priming against the two true
// references, the in-order emulator and an unprimed CPU, over every profile,
// the baseline and combined schemes, and warm depths from 0 to 30000:
//   - every record the primed window commits equals the next Step of an
//     emulator advanced to that depth on its own, which fails if RestoreLive
//     leaves any register, or the PC, unprimed;
//   - at depth 0 the window's Result equals an unprimed CPU's, so priming
//     from a cold warmer changes nothing;
//   - after the window, the warmer's emulator and a fresh one stepped in
//     lockstep agree, which fails if the window's stores reached the
//     warmer's memory instead of the overlay.
func TestPrimedWindowMatchesOracle(t *testing.T) {
	const window = 5000
	for _, p := range workload.Profiles() {
		prog := p.Generate()
		for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
			cfg := config.GoldenCove().WithScheme(scheme).WithPhysRegs(64)
			for _, depth := range []uint64{0, 1, 5000, 30000} {
				label := fmt.Sprintf("%s/%s/depth %d", p.Name, scheme, depth)
				w := newWarmer(prog, cfg)
				w.advance(depth)
				oracle := emulatorAt(prog, depth)

				cpu := pipeline.New(cfg, prog)
				w.prime(cpu)
				var checked uint64
				diverged := false
				cpu.OnCommit = func(got program.Record) {
					want, ok := oracle.Step()
					if !diverged && (!ok || got != want) {
						diverged = true
						t.Errorf("%s: commit %d diverged from the emulator:\n got %+v\nwant %+v (ok=%v)",
							label, checked, got, want, ok)
					}
					checked++
				}
				res := cpu.Run(window)
				if checked < window && !res.Halted {
					t.Errorf("%s: window committed %d of %d records", label, checked, window)
				}
				if depth == 0 {
					if plain := pipeline.New(cfg, prog).Run(window); !reflect.DeepEqual(res, plain) {
						t.Errorf("%s: primed Result differs from an unprimed CPU's:\nprimed   %+v\nunprimed %+v",
							label, res, plain)
					}
				}

				fresh := emulatorAt(prog, depth)
				for i := 0; i < window; i++ {
					got, okG := w.em.Step()
					want, okW := fresh.Step()
					if okG != okW || got != want {
						t.Errorf("%s: warmer step %d after the window diverged:\n got %+v (ok=%v)\nwant %+v (ok=%v)",
							label, i, got, okG, want, okW)
						break
					}
					if !okW {
						break
					}
				}
			}
		}
	}
}

// TestPipelineRestoreBitExact proves RestoreLive is exact: a CPU primed from
// a cold warmer (before any instruction executed, with cold predictor and
// cache state) produces the byte-identical Result of a CPU that was never
// primed.
func TestPipelineRestoreBitExact(t *testing.T) {
	cfg := testConfig()
	prog := workload.Micro(19).Generate()
	const instr = 20000

	plain := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent).Run(instr)

	w := newWarmer(prog, cfg)
	cpu := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent)
	w.prime(cpu)
	restored := cpu.Run(instr)

	if !reflect.DeepEqual(plain, restored) {
		t.Fatalf("restored-at-0 run diverged:\nplain    %+v\nrestored %+v", plain, restored)
	}
}

// TestPrimeMatchesCapture proves a primed window is a pure function of the
// warm state captured at its start: a window primed from a warmer that has
// already primed and run one window yields the byte-identical Result of the
// first window and of a window primed from an independent warmer advanced to
// the same instruction. It fails if a window's register, predictor, cache or
// memory updates leak back into the warmer it was primed from.
func TestPrimeMatchesCapture(t *testing.T) {
	cfg := testConfig()
	prog := workload.Micro(31).Generate()
	const depth, window = 6000, 10000
	w := newWarmer(prog, cfg)
	w.advance(depth)
	ref := newWarmer(prog, cfg)
	ref.advance(depth)

	primed := func(w *warmer) pipeline.Result {
		cpu := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent)
		w.prime(cpu)
		return cpu.Run(window)
	}
	first := primed(w)
	again := primed(w)
	fresh := primed(ref)
	if first.Committed == 0 {
		t.Fatalf("primed window committed nothing")
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("second window from the same warmer diverged:\nfirst  %+v\nsecond %+v", first, again)
	}
	if !reflect.DeepEqual(fresh, again) {
		t.Fatalf("window from a reused warmer diverged from an independent capture:\nindependent %+v\nreused      %+v", fresh, again)
	}
}

// TestRestoreAfterRunPanics documents the fresh-CPU-only contract.
func TestRestoreAfterRunPanics(t *testing.T) {
	cfg := testConfig()
	prog := workload.Micro(23).Generate()
	cpu := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent)
	cpu.RunFor(10, ^uint64(0))
	w := newWarmer(prog, cfg)
	defer func() {
		if recover() == nil {
			t.Fatalf("RestoreLive on a stepped CPU did not panic")
		}
	}()
	cpu.RestoreLive(w.em, w.pred, w.mem)
}

// TestSampledDeterminism: the estimate is a pure function of
// (config, program, plan, horizon).
func TestSampledDeterminism(t *testing.T) {
	cfg := testConfig()
	prog := workload.Micro(29).Generate()
	plan := Plan{Period: 5000, Window: 500, Warmup: 100}
	a := Run(cfg, prog, pipeline.SchedulerEvent, 40000, plan)
	b := Run(cfg, prog, pipeline.SchedulerEvent, 40000, plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestSampledLifetimeParity: lifetime accounting in the window engines is
// analysis only, so turning it on leaves every field of the Estimate
// unchanged, on an integer, a floating-point and a memory-bound profile.
func TestSampledLifetimeParity(t *testing.T) {
	cfg := testConfig()
	plan := Plan{Period: 5000, Window: 1000, Warmup: 250}
	for _, name := range []string{"gcc", "lbm", "mcf"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("profile %q missing", name)
		}
		prog := p.Generate()
		off := run(cfg, prog, pipeline.SchedulerEvent, 60000, plan, false)
		on := run(cfg, prog, pipeline.SchedulerEvent, 60000, plan, true)
		if off.Windows == 0 {
			t.Fatalf("%s: no sampled windows", name)
		}
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: estimate depends on lifetime accounting:\n on  %+v\n off %+v", name, on, off)
		}
	}
}

// TestSampledAccuracyShort is the tier-1 accuracy check: on two real
// profiles at a short horizon, the sampled IPC estimate must land within 5%
// of the full-detail oracle.
func TestSampledAccuracyShort(t *testing.T) {
	cfg := testConfig()
	plan := Plan{Period: 10000, Window: 2000, Warmup: 500}
	const instr = 400000
	for _, name := range []string{"gcc", "exchange2"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("profile %q missing", name)
		}
		prog := p.Generate()
		exact := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent).Run(instr)
		est := Run(cfg, prog, pipeline.SchedulerEvent, instr, plan)
		err := math.Abs(est.Result.IPC-exact.IPC) / exact.IPC
		t.Logf("%s: exact IPC %.4f, sampled %.4f (err %.2f%%, ±%.2f%% CI, %d windows)",
			name, exact.IPC, est.Result.IPC, 100*err, 100*est.RelErr.IPC, est.Windows)
		if err > 0.05 {
			t.Errorf("%s: sampled IPC error %.2f%% > 5%%", name, 100*err)
		}
		// The exact pipeline overshoots the instruction budget by up to one
		// retire-width group; the sampled driver stops the emulator exactly
		// at the horizon. Allow that slack.
		if d := int64(exact.Committed) - int64(est.Result.Committed); d < 0 || d > 8 {
			t.Errorf("%s: sampled committed %d vs exact %d (outside retire-width slack)", name, est.Result.Committed, exact.Committed)
		}
	}
}

// TestSampledAccuracyBattery is the full validation battery from the issue:
// sampled vs. full-detail across all 23 profiles at a long horizon, under
// both shipped plans — the speed-first period-200k plan and the
// accuracy-first period-100k plan — reporting per-profile error and
// wall-clock speedup. Run it explicitly with ATR_SAMPLE_BATTERY=<instr>
// (e.g. 10000000); it is far too slow for tier-1. Set
// ATR_SAMPLE_BATTERY_JSON=<path> to also write the per-profile rows as JSON
// (the source of README's accuracy table and BENCH_8.json).
func TestSampledAccuracyBattery(t *testing.T) {
	horizon := os.Getenv("ATR_SAMPLE_BATTERY")
	if horizon == "" {
		t.Skip("set ATR_SAMPLE_BATTERY=<instr> to run the full battery")
	}
	var instr uint64
	if _, err := fmt.Sscanf(horizon, "%d", &instr); err != nil || instr == 0 {
		t.Fatalf("bad ATR_SAMPLE_BATTERY %q", horizon)
	}
	cfg := testConfig()
	plans := []Plan{
		{Period: 200000, Window: 2000, Warmup: 500},
		{Period: 100000, Window: 2000, Warmup: 500},
	}
	type row struct {
		Bench       string  `json:"bench"`
		Plan        string  `json:"plan"`
		ExactIPC    float64 `json:"exact_ipc"`
		SampledIPC  float64 `json:"sampled_ipc"`
		ErrPct      float64 `json:"err_pct"`
		CIPct       float64 `json:"ci_pct"`
		Windows     int     `json:"windows"`
		ExactSecs   float64 `json:"exact_secs"`
		SampledSecs float64 `json:"sampled_secs"`
		Speedup     float64 `json:"speedup"`
	}
	var rows []row
	worst := make(map[string]float64)
	for _, p := range workload.Profiles() {
		prog := p.Generate()
		t0 := time.Now()
		exact := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent).Run(instr)
		exactSecs := time.Since(t0).Seconds()
		for _, plan := range plans {
			t1 := time.Now()
			est := Run(cfg, prog, pipeline.SchedulerEvent, instr, plan)
			sampledSecs := time.Since(t1).Seconds()
			err := math.Abs(est.Result.IPC-exact.IPC) / exact.IPC
			if err > worst[plan.String()] {
				worst[plan.String()] = err
			}
			rows = append(rows, row{
				Bench: p.Name, Plan: plan.String(),
				ExactIPC: exact.IPC, SampledIPC: est.Result.IPC,
				ErrPct: 100 * err, CIPct: 100 * est.RelErr.IPC,
				Windows:   est.Windows,
				ExactSecs: exactSecs, SampledSecs: sampledSecs,
				Speedup: exactSecs / sampledSecs,
			})
			t.Logf("%-12s %-24s exact %.4f sampled %.4f err %5.2f%% ci ±%.2f%% speedup %5.1fx",
				p.Name, plan, exact.IPC, est.Result.IPC, 100*err, 100*est.RelErr.IPC,
				exactSecs/sampledSecs)
			// Regression backstop, deliberately looser than the 2% issue
			// target: phase-heavy synthetic profiles carry window-sampling
			// variance the plan cannot remove (BENCH_8.json records the
			// honest per-profile numbers; README discusses the tradeoff).
			if err > 0.08 {
				t.Errorf("%s @ %s: sampled IPC error %.2f%% > 8%% backstop", p.Name, plan, 100*err)
			}
		}
	}
	for plan, w := range worst {
		t.Logf("worst-case IPC error @ %s: %.2f%%", plan, 100*w)
	}
	if path := os.Getenv("ATR_SAMPLE_BATTERY_JSON"); path != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
