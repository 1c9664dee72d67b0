package pipeline

import (
	"testing"

	"atr/internal/config"
	"atr/internal/isa"
	"atr/internal/program"
	"atr/internal/workload"
)

func testConfig() config.Config {
	return config.GoldenCove().WithPhysRegs(96)
}

// runAndCompare executes prog on the CPU and checks every committed
// instruction against the in-order emulator. This is the architectural
// safety oracle: an unsafe early release corrupts a live value and shows up
// as a record mismatch.
func runAndCompare(t *testing.T, cfg config.Config, prog *program.Program, n uint64) Result {
	t.Helper()
	emu := program.NewEmulator(prog)
	cpu := New(cfg, prog)
	var mismatches int
	var checked uint64
	cpu.OnCommit = func(got program.Record) {
		want, ok := emu.Step()
		if !ok {
			t.Fatalf("CPU committed %v beyond emulator halt", got)
		}
		if got != want {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("commit %d mismatch:\n got %+v\nwant %+v", checked, got, want)
			}
		}
		checked++
	}
	res := cpu.Run(n)
	if mismatches > 0 {
		t.Fatalf("%d/%d committed records diverged from the oracle", mismatches, checked)
	}
	if checked == 0 {
		t.Fatal("nothing committed")
	}
	if err := cpu.Engine.CheckInvariants(); err != nil {
		t.Fatalf("invariants after run: %v", err)
	}
	return res
}

func TestSimpleLoop(t *testing.T) {
	b := program.NewBuilder(1, 2)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 50)
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 0)
	b.Label("loop")
	b.ALU(isa.R1, isa.R1, isa.R0, 0)
	b.ALU(isa.R0, isa.R0, isa.RegInvalid, -1)
	b.Cmp(isa.R0, isa.RegInvalid, 0)
	b.Branch(program.PredNotZero, "loop")
	prog := b.MustBuild()

	res := runAndCompare(t, testConfig(), prog, 10000)
	if !res.Halted {
		t.Error("program should halt")
	}
	if res.Committed != 2+50*4 {
		t.Errorf("committed %d, want 202", res.Committed)
	}
	if res.IPC <= 0.3 {
		t.Errorf("IPC = %.2f implausibly low for a tight loop", res.IPC)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	b := program.NewBuilder(3, 4)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 8)
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 1234)
	b.Store(isa.R0, isa.R1, 0x1000, 4096, 0)
	b.Load(isa.R2, isa.R0, 0x1000, 4096, 0) // must forward 1234
	b.ALU(isa.R3, isa.R2, isa.RegInvalid, 1)
	prog := b.MustBuild()
	runAndCompare(t, testConfig(), prog, 100)
}

func TestCallRetAndIndirect(t *testing.T) {
	b := program.NewBuilder(5, 6)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 20)
	b.Label("loop")
	b.Call(isa.R14, "fn")
	b.JumpInd(isa.R0, "a", "b")
	b.Label("a")
	b.ALU(isa.R2, isa.R2, isa.RegInvalid, 3)
	b.Jump("cont")
	b.Label("b")
	b.ALU(isa.R2, isa.R2, isa.RegInvalid, 5)
	b.Jump("cont")
	b.Label("cont")
	b.ALU(isa.R0, isa.R0, isa.RegInvalid, -1)
	b.Cmp(isa.R0, isa.RegInvalid, 0)
	b.Branch(program.PredNotZero, "loop")
	b.Jump("end")
	b.Label("fn")
	b.Mul(isa.R3, isa.R3, isa.R0, 7)
	b.Ret(isa.R14)
	b.Label("end")
	b.Nop()
	prog := b.MustBuild()
	runAndCompare(t, testConfig(), prog, 1000)
}

// TestEquivalenceAllSchemes is the headline safety test: under every release
// scheme, every redefine-delay, and both recovery styles, the committed
// stream must exactly match the in-order oracle on a workload with
// mispredictions, calls, indirect jumps, loads, stores and divides.
func TestEquivalenceAllSchemes(t *testing.T) {
	prog := workload.Micro(42).Generate()
	for _, scheme := range config.Schemes() {
		for _, prf := range []int{64, 96} {
			cfg := testConfig().WithScheme(scheme).WithPhysRegs(prf)
			t.Run(scheme.String()+"/"+itoa(prf), func(t *testing.T) {
				res := runAndCompare(t, cfg, prog, 30000)
				if res.Mispredicts == 0 {
					t.Error("workload should mispredict (wrong-path coverage)")
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestEquivalenceRedefineDelay(t *testing.T) {
	prog := workload.Micro(7).Generate()
	for _, delay := range []int{0, 1, 2} {
		cfg := testConfig().WithScheme(config.SchemeATR)
		cfg.RedefineDelay = delay
		t.Run(itoa(delay), func(t *testing.T) {
			runAndCompare(t, cfg, prog, 20000)
		})
	}
}

func TestEquivalenceWalkRecovery(t *testing.T) {
	prog := workload.Micro(9).Generate()
	for _, scheme := range config.Schemes() {
		cfg := testConfig().WithScheme(scheme)
		cfg.WalkRecovery = true
		t.Run(scheme.String(), func(t *testing.T) {
			runAndCompare(t, cfg, prog, 20000)
		})
	}
}

// TestWalkAndCheckpointAgree runs the same program under both recovery
// styles and requires identical cycle-level behaviour.
func TestWalkAndCheckpointAgree(t *testing.T) {
	prog := workload.Micro(11).Generate()
	cfg := testConfig().WithScheme(config.SchemeCombined)
	r1 := New(cfg, prog).Run(20000)
	cfg.WalkRecovery = true
	r2 := New(cfg, prog).Run(20000)
	if r1.Cycles != r2.Cycles || r1.Committed != r2.Committed {
		t.Errorf("recovery styles diverge: checkpoint %d cycles, walk %d cycles", r1.Cycles, r2.Cycles)
	}
}

// TestFaultsAreTransparent injects synchronous exceptions: with precise
// exception handling, the committed stream must be unchanged.
func TestFaultsAreTransparent(t *testing.T) {
	prog := workload.Micro(13).Generate()
	for _, scheme := range config.Schemes() {
		cfg := testConfig().WithScheme(scheme)
		cfg.FaultRate = 3 // roughly one in three faultable PCs fault once
		t.Run(scheme.String(), func(t *testing.T) {
			res := runAndCompare(t, cfg, prog, 20000)
			if res.Exceptions == 0 {
				t.Error("no exceptions taken; injection broken")
			}
		})
	}
}

// TestInterruptsAreTransparent injects asynchronous interrupts in both
// handling modes; architectural state must be unaffected.
func TestInterruptsAreTransparent(t *testing.T) {
	prog := workload.Micro(17).Generate()
	for _, mode := range []config.InterruptMode{config.InterruptDrain, config.InterruptFlush} {
		for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeATR, config.SchemeCombined} {
			cfg := testConfig().WithScheme(scheme)
			cfg.InterruptMode = mode
			cfg.InterruptInterval = 500
			cfg.InterruptCost = 40
			name := scheme.String() + "/flush"
			if mode == config.InterruptDrain {
				name = scheme.String() + "/drain"
			}
			t.Run(name, func(t *testing.T) {
				res := runAndCompare(t, cfg, prog, 15000)
				if res.Interrupts == 0 {
					t.Error("no interrupts served")
				}
			})
		}
	}
}

func TestEquivalenceOnRealProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	for _, name := range []string{"gcc", "mcf", "x264", "lbm", "namd", "povray"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		prog := p.Generate()
		for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
			cfg := testConfig().WithScheme(scheme).WithPhysRegs(64)
			t.Run(name+"/"+scheme.String(), func(t *testing.T) {
				runAndCompare(t, cfg, prog, 15000)
			})
		}
	}
}

func TestSmallRFIsSlower(t *testing.T) {
	prog := workload.Micro(21).Generate()
	small := New(testConfig().WithPhysRegs(48), prog).Run(20000)
	big := New(testConfig().WithPhysRegs(280), prog).Run(20000)
	if small.Cycles <= big.Cycles {
		t.Errorf("48 regs (%d cycles) should be slower than 280 regs (%d cycles)", small.Cycles, big.Cycles)
	}
	if small.RenameStalls == 0 {
		t.Error("expected rename stalls with a tiny register file")
	}
}

func TestATRNotSlowerThanBaselineSmallRF(t *testing.T) {
	// At high register pressure ATR should recover cycles; require it to
	// be at least as fast on an atomic-region-friendly workload.
	p := workload.Micro(23)
	p.BlockLen = 16
	p.FlagWriteFrac = 0.6
	prog := p.Generate()
	base := New(testConfig().WithScheme(config.SchemeBaseline).WithPhysRegs(56), prog).Run(20000)
	atr := New(testConfig().WithScheme(config.SchemeATR).WithPhysRegs(56), prog).Run(20000)
	if atr.Cycles > base.Cycles {
		t.Errorf("ATR (%d cycles) slower than baseline (%d cycles)", atr.Cycles, base.Cycles)
	}
	if atr.Cycles == base.Cycles {
		t.Logf("warning: ATR made no difference (%d cycles)", atr.Cycles)
	}
}

func TestInfiniteRegistersNoStalls(t *testing.T) {
	prog := workload.Micro(29).Generate()
	res := New(testConfig().WithPhysRegs(0), prog).Run(10000)
	if res.RenameStalls != 0 {
		t.Errorf("%d rename stalls with infinite registers", res.RenameStalls)
	}
}

func TestLedgerEventOrdering(t *testing.T) {
	// Fig 3 partial order: Renamed <= {Consumed, Redefined} <= Precommit
	// <= Commit for every completed lifetime. The ledger accumulates only
	// non-negative durations, so a violated order would panic on the
	// unsigned subtraction or show as absurd totals; spot-check via state
	// fractions summing to 1.
	prog := workload.Micro(31).Generate()
	cpu := New(testConfig(), prog)
	cpu.Engine.TrackLifetimes()
	cpu.Run(20000)
	inUse, unused, verified := cpu.Engine.Ledger.StateFractions()
	sum := inUse + unused + verified
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("state fractions sum to %v", sum)
	}
	if cpu.Engine.Ledger.Completed() == 0 {
		t.Error("no completed lifetimes recorded")
	}
}

func TestAtomicRatioPlausible(t *testing.T) {
	// The integer micro profile should put a visible fraction of
	// allocations inside atomic regions (the paper reports ~17% for
	// SPECint).
	prog := workload.Micro(37).Generate()
	cpu := New(testConfig().WithScheme(config.SchemeATR), prog)
	cpu.Engine.TrackLifetimes()
	cpu.Run(30000)
	_, _, atomic := cpu.Engine.Ledger.RegionFractions()
	if atomic < 0.02 || atomic > 0.8 {
		t.Errorf("atomic ratio = %.3f, implausible", atomic)
	}
	if cpu.Engine.Stats.Get("atr.claims") == 0 {
		t.Error("no claims on an ATR run")
	}
	if cpu.Engine.Stats.Get("release.atr") == 0 {
		t.Error("no early releases on an ATR run")
	}
}

func TestDeterminism(t *testing.T) {
	prog := workload.Micro(41).Generate()
	cfg := testConfig().WithScheme(config.SchemeCombined)
	a := New(cfg, prog).Run(10000)
	b := New(cfg, prog).Run(10000)
	if a != b {
		t.Errorf("same configuration, different results:\n%+v\n%+v", a, b)
	}
}
