package batch

import (
	"reflect"
	"testing"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/workload"
)

// TestBatchMatchesSolo is the lockstep bit-identity oracle: every lane of a
// batched run must produce exactly the Result a solo pipeline.Run produces
// for the same configuration — across schemes, register-file sizes, both
// scheduler implementations, and odd slice sizes that chop runs at
// arbitrary cycle boundaries.
func TestBatchMatchesSolo(t *testing.T) {
	p := workload.Micro(7)
	prog := p.Generate()
	const instr = 3000

	var cfgs []config.Config
	for _, n := range []int{64, 96} {
		for _, s := range config.Schemes() {
			cfgs = append(cfgs, config.GoldenCove().WithPhysRegs(n).WithScheme(s))
		}
	}

	for _, sched := range []struct {
		name string
		kind pipeline.SchedulerKind
	}{
		{"event", pipeline.SchedulerEvent},
		{"scan", pipeline.SchedulerScan},
	} {
		for _, slice := range []uint64{0, 1, 37, 100_000} {
			lanes, perf := Run(prog, cfgs, instr, Options{Kind: sched.kind, Slice: slice})
			if perf.Lanes != len(cfgs) {
				t.Fatalf("%s slice=%d: perf.Lanes = %d, want %d", sched.name, slice, perf.Lanes, len(cfgs))
			}
			for i, cfg := range cfgs {
				want := pipeline.NewWithScheduler(cfg, prog, sched.kind).Run(instr)
				if !reflect.DeepEqual(lanes[i].Result, want) {
					t.Errorf("%s slice=%d lane %d (%s regs=%d): batched result diverges from solo\n got %+v\nwant %+v",
						sched.name, slice, i, cfg.Scheme, cfg.PhysRegs, lanes[i].Result, want)
				}
			}
		}
	}
}

// TestBatchLedgerMatchesSolo checks that lane-private observer state — the
// register-lifetime ledger the figures are computed from — is also
// bit-identical to a solo run, not just the headline Result.
func TestBatchLedgerMatchesSolo(t *testing.T) {
	p := workload.Micro(11)
	prog := p.Generate()
	const instr = 2000
	cfgs := []config.Config{
		config.GoldenCove().WithPhysRegs(64).WithScheme(config.SchemeATR),
		config.GoldenCove().WithPhysRegs(64).WithScheme(config.SchemeCombined),
		config.GoldenCove().WithPhysRegs(224).WithScheme(config.SchemeATR),
	}
	lanes, _ := Run(prog, cfgs, instr, Options{Kind: pipeline.SchedulerEvent, Lifetimes: true})
	for i, cfg := range cfgs {
		solo := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent)
		solo.Engine.TrackLifetimes()
		solo.Run(instr)
		got := lanes[i].CPU.Engine.Ledger
		want := solo.Engine.Ledger
		if got.Completed() != want.Completed() {
			t.Fatalf("lane %d: ledger completed %d, solo %d", i, got.Completed(), want.Completed())
		}
		gi, gu, gv := got.StateFractions()
		wi, wu, wv := want.StateFractions()
		if gi != wi || gu != wu || gv != wv {
			t.Errorf("lane %d: state fractions (%v,%v,%v) != solo (%v,%v,%v)", i, gi, gu, gv, wi, wu, wv)
		}
	}
}

// TestBatchSingleLane checks the degenerate K=1 batch.
func TestBatchSingleLane(t *testing.T) {
	p := workload.Micro(3)
	prog := p.Generate()
	cfg := config.GoldenCove().WithPhysRegs(96).WithScheme(config.SchemeNonSpecER)
	lanes, perf := Run(prog, []config.Config{cfg}, 1500, Options{})
	want := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent).Run(1500)
	if !reflect.DeepEqual(lanes[0].Result, want) {
		t.Fatalf("single-lane batch diverges from solo:\n got %+v\nwant %+v", lanes[0].Result, want)
	}
	if perf.Lanes != 1 {
		t.Fatalf("perf.Lanes = %d, want 1", perf.Lanes)
	}
}
