package pipeline

import (
	"testing"

	"atr/internal/config"
	"atr/internal/isa"
	"atr/internal/program"
	"atr/internal/workload"
)

// TestStoreDataSplitAllowsLoadMLP verifies the STA/STD split: a store whose
// data depends on a long-latency load must not serialize younger,
// non-conflicting loads. With split stores, the two misses overlap and the
// run takes roughly one memory round trip; without the split it would take
// two.
func TestStoreDataSplitAllowsLoadMLP(t *testing.T) {
	b := program.NewBuilder(1, 2)
	// load A (miss) -> store [X] = A -> load B (different address, miss)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 0)
	b.Load(isa.R1, isa.R0, 0x100000, 64<<20, 0) // cold miss
	b.Store(isa.R0, isa.R1, 0x200000, 4096, 0)  // data depends on load A
	b.Load(isa.R2, isa.R0, 0x300000, 64<<20, 0) // independent cold miss
	b.ALU(isa.R3, isa.R1, isa.R2, 0)
	prog := b.MustBuild()

	cfg := config.GoldenCove()
	res := runAndCompare(t, cfg, prog, 100)
	// Budget: one cold I-cache miss (~260 cycles) plus ONE overlapped data
	// round trip (~260). Serialized loads would need a third trip (~780).
	if res.Cycles > 650 {
		t.Errorf("run took %d cycles; store data dependence is serializing independent loads", res.Cycles)
	}
}

// TestForwardingWaitsForStoreData: a load matching an in-flight store whose
// data is not yet available must wait and then receive the correct value
// (verified via the oracle).
func TestForwardingWaitsForStoreData(t *testing.T) {
	b := program.NewBuilder(3, 4)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 0)
	b.Load(isa.R1, isa.R0, 0x100000, 64<<20, 0) // slow producer of store data
	b.Store(isa.R0, isa.R1, 0x5000, 4096, 0)    // address ready immediately
	b.Load(isa.R2, isa.R0, 0x5000, 4096, 0)     // must forward the slow value
	b.ALU(isa.R3, isa.R2, isa.RegInvalid, 1)
	prog := b.MustBuild()
	runAndCompare(t, config.GoldenCove(), prog, 100)
}

// TestForwardingYoungestOlderStoreWins: two older stores to the same address
// — the load must see the younger one.
func TestForwardingYoungestOlderStoreWins(t *testing.T) {
	b := program.NewBuilder(5, 6)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 0)
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 111)
	b.ALU(isa.R2, isa.RegInvalid, isa.RegInvalid, 222)
	b.Store(isa.R0, isa.R1, 0x6000, 4096, 0)
	b.Store(isa.R0, isa.R2, 0x6000, 4096, 0)
	b.Load(isa.R3, isa.R0, 0x6000, 4096, 0) // must read 222
	prog := b.MustBuild()
	emu := program.NewEmulator(prog)
	emu.Run(100)
	if emu.Regs[isa.R3] != 222 {
		t.Fatalf("oracle sanity: r3 = %d", emu.Regs[isa.R3])
	}
	runAndCompare(t, config.GoldenCove(), prog, 100)
}

// TestWrongPathStoresNeverReachMemory: a store fetched down a mispredicted
// path must not modify committed memory (checked implicitly by the oracle on
// a mispredict-heavy workload with a high store fraction).
func TestWrongPathStoresNeverReachMemory(t *testing.T) {
	p := workload.Micro(55)
	p.StoreFrac = 0.25
	p.BranchBias = 0.55 // heavy mispredicting
	prog := p.Generate()
	res := runAndCompare(t, testConfig(), prog, 15000)
	if res.Mispredicts < 100 {
		t.Fatalf("setup: only %d mispredicts", res.Mispredicts)
	}
}

// runOnBoth runs prog under both schedulers against the emulator and returns
// the two CPUs for white-box inspection.
func runOnBoth(t *testing.T, cfg config.Config, prog *program.Program, n uint64) [2]*CPU {
	t.Helper()
	var cpus [2]*CPU
	for i, kind := range []SchedulerKind{SchedulerEvent, SchedulerScan} {
		emu := program.NewEmulator(prog)
		cpu := NewWithScheduler(cfg, prog, kind)
		cpu.OnCommit = func(got program.Record) {
			want, _ := emu.Step()
			if got != want {
				t.Fatalf("sched %d: commit mismatch:\n got %+v\nwant %+v", kind, got, want)
			}
		}
		cpu.Run(n)
		if err := cpu.Engine.CheckInvariants(); err != nil {
			t.Fatalf("sched %d: %v", kind, err)
		}
		cpus[i] = cpu
	}
	return cpus
}

// commitBlocker emits two dependent divides that stall in-order commit for
// roughly two divide latencies, keeping subsequent stores queued while
// younger loads execute — the window where forwarding must supply values.
func commitBlocker(b *program.Builder, zero isa.Reg) {
	b.Div(isa.R13, zero, zero, 1)
	b.Div(isa.R13, isa.R13, zero, 1)
}

// TestForwardingPartialOverlapWidths: two adjacent 8-byte words in the same
// 64-byte cache line must never forward to each other — the match is on the
// exact effective address, not the line. The same-address load in the same
// window must still forward.
func TestForwardingPartialOverlapWidths(t *testing.T) {
	b := program.NewBuilder(7, 8)
	b.ALU(isa.R9, isa.RegInvalid, isa.RegInvalid, 0)
	commitBlocker(b, isa.R9)
	b.Div(isa.R1, isa.R9, isa.R9, 7)      // slow store data
	b.Store(isa.R9, isa.R1, 0x7000, 0, 0) // word 0 of the line, data late
	b.Load(isa.R2, isa.R9, 0x7008, 0, 0)  // word 1: distinct EA, same line
	b.ALU(isa.R3, isa.RegInvalid, isa.RegInvalid, 5)
	b.Store(isa.R9, isa.R3, 0x7008, 0, 0) // word 1 store
	b.Load(isa.R4, isa.R9, 0x7000, 0, 0)  // word 0: must forward 7
	b.Load(isa.R5, isa.R9, 0x7008, 0, 0)  // word 1: must forward 5
	prog := b.MustBuild()
	for _, cpu := range runOnBoth(t, testConfig(), prog, 100) {
		// Exactly two loads may forward: the word-0 and word-1 exact
		// matches. The cross-word load must go to memory — a third forward
		// would mean the match widened beyond the EA.
		if fw := cpu.Stats.Get("lsq.forwards"); fw != 2 {
			t.Errorf("lsq.forwards = %d, want exactly 2 (no cross-word forwarding)", fw)
		}
	}
}

// TestForwardingSameCycleCapture: a store whose data is ready the moment its
// STA issues (plus the degenerate constant store with no data source) must
// capture immediately and forward to a back-to-back load.
func TestForwardingSameCycleCapture(t *testing.T) {
	b := program.NewBuilder(9, 10)
	b.ALU(isa.R9, isa.RegInvalid, isa.RegInvalid, 0)
	commitBlocker(b, isa.R9)
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 42) // data ready long before STA
	b.Store(isa.R9, isa.R1, 0x8000, 0, 0)
	b.Load(isa.R2, isa.R9, 0x8000, 0, 0)          // issues the cycle after capture
	b.Store(isa.R9, isa.RegInvalid, 0x8008, 0, 0) // constant store: no STD source
	b.Load(isa.R3, isa.R9, 0x8008, 0, 0)          // must forward the constant zero
	prog := b.MustBuild()
	emu := program.NewEmulator(prog)
	emu.Run(100)
	if emu.Regs[isa.R2] != 42 || emu.Regs[isa.R3] != 0 {
		t.Fatalf("oracle sanity: r2=%d r3=%d", emu.Regs[isa.R2], emu.Regs[isa.R3])
	}
	for _, cpu := range runOnBoth(t, testConfig(), prog, 100) {
		if fw := cpu.Stats.Get("lsq.forwards"); fw < 2 {
			t.Errorf("lsq.forwards = %d, want both loads forwarded", fw)
		}
	}
}

// TestForwardingAcrossSquashBoundary: a wrong-path store enters the store
// queue and the forwarding structures, then a branch resolves and squashes
// it. A correct-path load issued after recovery must forward from the older
// correct-path store, never from the squashed one. The wrong path is reached
// deterministically: the TAGE base predictor predicts a cold branch taken,
// and the branch's flag source is a long-latency divide that resolves (not
// taken) only after the wrong-path store has issued.
func TestForwardingAcrossSquashBoundary(t *testing.T) {
	b := program.NewBuilder(11, 12)
	b.ALU(isa.R9, isa.RegInvalid, isa.RegInvalid, 0)
	commitBlocker(b, isa.R9) // holds the correct-path store in the SQ
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 1)
	b.Store(isa.R9, isa.R1, 0x9000, 0, 0) // correct-path store, data ready early
	b.Div(isa.R5, isa.R9, isa.R9, 0)      // branch flags: 0 => not taken, slow
	b.BranchReg(isa.R5, 0, "wrong")       // cold-predicted taken, actually not
	b.Load(isa.R2, isa.R9, 0x9000, 0, 0)  // correct path: must forward 1
	b.ALU(isa.R4, isa.R2, isa.RegInvalid, 0)
	b.Jump("end")
	b.Label("wrong")
	b.ALU(isa.R3, isa.RegInvalid, isa.RegInvalid, 2)
	b.Store(isa.R9, isa.R3, 0x9000, 0, 0) // squashed store to the same EA
	b.Label("end")
	b.Nop()
	prog := b.MustBuild()
	oracle := program.NewEmulator(prog)
	pathLen := uint64(len(oracle.Run(100))) // wrong-path instructions never commit
	if oracle.Regs[isa.R2] != 1 {
		t.Fatalf("oracle sanity: r2=%d, want 1", oracle.Regs[isa.R2])
	}
	for _, kind := range []SchedulerKind{SchedulerEvent, SchedulerScan} {
		emu := program.NewEmulator(prog)
		cpu := NewWithScheduler(testConfig(), prog, kind)
		cpu.OnCommit = func(got program.Record) {
			want, _ := emu.Step()
			if got != want {
				t.Fatalf("sched %d: commit mismatch:\n got %+v\nwant %+v", kind, got, want)
			}
		}
		// Step manually to witness both same-EA stores (correct-path and
		// wrong-path) simultaneously in the SQ — proof the wrong path was
		// fetched and its store entered the forwarding structures before
		// the squash.
		maxSameEA := 0
		for i := 0; i < 800; i++ {
			cpu.step()
			n := 0
			for _, s := range cpu.sq[cpu.sqHead:] {
				if s.eaKnown && s.ea == 0x9000 {
					n++
				}
			}
			if n > maxSameEA {
				maxSameEA = n
			}
		}
		if err := cpu.Engine.CheckInvariants(); err != nil {
			t.Fatalf("sched %d: %v", kind, err)
		}
		if cpu.committed != pathLen {
			t.Fatalf("sched %d: committed %d of %d", kind, cpu.committed, pathLen)
		}
		if cpu.mispredicts == 0 {
			t.Errorf("sched %d: branch did not mispredict; wrong path never fetched", kind)
		}
		if maxSameEA < 2 {
			t.Errorf("sched %d: wrong-path store never coexisted with the correct store (max %d)", kind, maxSameEA)
		}
		if fw := cpu.Stats.Get("lsq.forwards"); fw == 0 {
			t.Errorf("sched %d: load did not forward; squash boundary not exercised", kind)
		}
	}
}

// TestSQFullStall: with a tiny store queue, rename must stall stores rather
// than overflow, occupancy must reach but never exceed the configured size,
// and the commit stream must stay exact.
func TestSQFullStall(t *testing.T) {
	b := program.NewBuilder(13, 14)
	b.ALU(isa.R9, isa.RegInvalid, isa.RegInvalid, 0)
	b.Div(isa.R1, isa.R9, isa.R9, 3) // slow data shared by all stores
	for i := 0; i < 10; i++ {
		b.Store(isa.R9, isa.R1, 0xA000+uint64(8*i), 0, 0)
	}
	b.Load(isa.R2, isa.R9, 0xA000, 0, 0)
	prog := b.MustBuild()
	cfg := testConfig()
	cfg.StoreQueue = 4
	for _, kind := range []SchedulerKind{SchedulerEvent, SchedulerScan} {
		emu := program.NewEmulator(prog)
		cpu := NewWithScheduler(cfg, prog, kind)
		cpu.OnCommit = func(got program.Record) {
			want, _ := emu.Step()
			if got != want {
				t.Fatalf("sched %d: commit mismatch:\n got %+v\nwant %+v", kind, got, want)
			}
		}
		maxOcc := 0
		for i := 0; i < 2000; i++ {
			cpu.step()
			if cpu.sqCount > maxOcc {
				maxOcc = cpu.sqCount
			}
			if cpu.sqCount > 4 {
				t.Fatalf("sched %d cycle %d: SQ occupancy %d exceeds size 4", kind, cpu.cycle, cpu.sqCount)
			}
		}
		if maxOcc != 4 {
			t.Errorf("sched %d: SQ never filled (max occupancy %d); stall path untested", kind, maxOcc)
		}
		if cpu.committed != uint64(prog.Len()) {
			t.Errorf("sched %d: committed %d of %d", kind, cpu.committed, prog.Len())
		}
	}
}

// TestForwardFromYoungestInFlight white-boxes the forwardFrom ordering
// property on both schedulers: with three same-EA stores simultaneously in
// flight, a probe must match the youngest store older than itself — for
// every possible probe age, not just "younger than all".
func TestForwardFromYoungestInFlight(t *testing.T) {
	b := program.NewBuilder(15, 16)
	b.ALU(isa.R9, isa.RegInvalid, isa.RegInvalid, 0)
	commitBlocker(b, isa.R9)
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 1)
	b.Store(isa.R9, isa.R1, 0xB000, 0, 0)
	b.Store(isa.R9, isa.R1, 0xB100, 0, 0) // different EA: must never match
	b.ALU(isa.R2, isa.RegInvalid, isa.RegInvalid, 2)
	b.Store(isa.R9, isa.R2, 0xB000, 0, 0)
	b.ALU(isa.R3, isa.RegInvalid, isa.RegInvalid, 3)
	b.Store(isa.R9, isa.R3, 0xB000, 0, 0)
	prog := b.MustBuild()
	for _, kind := range []SchedulerKind{SchedulerEvent, SchedulerScan} {
		cpu := NewWithScheduler(testConfig(), prog, kind)
		// Step until all three same-EA stores are in flight with known
		// addresses (the cold I-cache miss delays the first fetch by a few
		// hundred cycles; the commit blocker then holds them queued).
		var seqs []uint64
		for i := 0; i < 3000 && len(seqs) < 3; i++ {
			cpu.step()
			seqs = seqs[:0]
			for _, s := range cpu.sq[cpu.sqHead:] {
				if s.eaKnown && s.ea == 0xB000 {
					seqs = append(seqs, s.seq)
				}
			}
		}
		if len(seqs) != 3 {
			t.Fatalf("sched %d: %d same-EA stores in flight, want 3 (blocker window too short?)", kind, len(seqs))
		}
		probes := []struct {
			seq  uint64
			want *uop // filled below
		}{
			{seq: seqs[0]},         // older than all: no match
			{seq: seqs[1]},         // between 1st and 2nd: matches 1st
			{seq: seqs[2]},         // between 2nd and 3rd: matches 2nd
			{seq: seqs[2] + 1<<40}, // younger than all: matches 3rd
		}
		wants := []uint64{0, seqs[0], seqs[1], seqs[2]}
		for i, pr := range probes {
			got := cpu.forwardFrom(&uop{seq: pr.seq}, 0xB000)
			if i == 0 {
				if got != nil {
					t.Errorf("sched %d: probe older than all stores matched seq %d", kind, got.seq)
				}
				continue
			}
			if got == nil || got.seq != wants[i] {
				gotSeq := uint64(0)
				if got != nil {
					gotSeq = got.seq
				}
				t.Errorf("sched %d probe %d: forwardFrom matched seq %d, want %d", kind, i, gotSeq, wants[i])
			}
		}
		if got := cpu.forwardFrom(&uop{seq: seqs[2] + 1<<40}, 0xB008); got != nil {
			t.Errorf("sched %d: unmatched EA forwarded from seq %d", kind, got.seq)
		}
	}
}

func TestROBRing(t *testing.T) {
	r := newROB(4)
	if r.len() != 0 || r.full() || r.cap() != 4 {
		t.Fatal("fresh ROB state wrong")
	}
	us := []*uop{{seq: 0}, {seq: 1}, {seq: 2}, {seq: 3}}
	for _, u := range us {
		r.push(u)
	}
	if !r.full() {
		t.Error("should be full")
	}
	if r.at(0).seq != 0 || r.at(3).seq != 3 {
		t.Error("ordering wrong")
	}
	if got := r.popHead(); got.seq != 0 {
		t.Errorf("popHead = %d", got.seq)
	}
	if got := r.popTail(); got.seq != 3 {
		t.Errorf("popTail = %d", got.seq)
	}
	r.push(&uop{seq: 4}) // wraps
	if r.len() != 3 || r.at(2).seq != 4 || r.at(0).seq != 1 {
		t.Error("wraparound wrong")
	}
}

func TestROBPanics(t *testing.T) {
	r := newROB(1)
	r.push(&uop{})
	func() {
		defer func() { recover() }()
		r.push(&uop{})
		t.Error("push to full ROB should panic")
	}()
	r.popHead()
	func() {
		defer func() { recover() }()
		r.popHead()
		t.Error("pop from empty ROB should panic")
	}()
}

// TestEquivalenceManySeeds is the broad-random safety net: many generated
// programs, combined scheme, moderate budget each.
func TestEquivalenceManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for seed := uint64(100); seed < 112; seed++ {
		p := workload.Micro(seed)
		prog := p.Generate()
		cfg := testConfig().WithScheme(config.SchemeCombined).WithPhysRegs(72)
		t.Run(itoa(int(seed)), func(t *testing.T) {
			runAndCompare(t, cfg, prog, 8000)
		})
	}
}

// TestCounterWidthEquivalence: the consumer-counter width changes only
// performance, never architecture.
func TestCounterWidthEquivalence(t *testing.T) {
	prog := workload.Micro(61).Generate()
	for _, bits := range []int{0, 2, 3, 4} {
		cfg := testConfig().WithScheme(config.SchemeCombined)
		cfg.ConsumerCounterBits = bits
		t.Run(itoa(bits), func(t *testing.T) {
			runAndCompare(t, cfg, prog, 12000)
		})
	}
}

// TestMemPrecommitAblation: the conservative precommit variant is
// architecturally identical and strictly less aggressive for ER.
func TestMemPrecommitAblation(t *testing.T) {
	prog := workload.Micro(67).Generate()
	cfg := testConfig().WithScheme(config.SchemeNonSpecER).WithPhysRegs(64)
	cfg.MemPrecommitAtExec = false
	runAndCompare(t, cfg, prog, 12000)

	cons := New(cfg, prog)
	cons.Run(20000)
	cfgA := cfg
	cfgA.MemPrecommitAtExec = true
	aggr := New(cfgA, prog)
	aggr.Run(20000)
	if cons.Engine.Stats.Get("release.er") > aggr.Engine.Stats.Get("release.er") {
		t.Errorf("conservative precommit released more (%d) than aggressive (%d)",
			cons.Engine.Stats.Get("release.er"), aggr.Engine.Stats.Get("release.er"))
	}
}

// TestSQOrderMaintained: the store queue must always be in fetch order with
// no squashed entries after any run.
func TestSQOrderMaintained(t *testing.T) {
	p := workload.Micro(71)
	p.StoreFrac = 0.3
	prog := p.Generate()
	cpu := New(testConfig(), prog)
	cpu.Run(10000)
	last := uint64(0)
	for _, s := range cpu.sq[cpu.sqHead:] {
		if s.squashed {
			t.Fatal("squashed store left in SQ")
		}
		if s.seq < last {
			t.Fatal("SQ out of order")
		}
		last = s.seq
	}
}

// TestEquivalenceMoveElimination: move elimination changes only which
// physical registers hold values, never the values; the committed stream
// must match the oracle under every scheme on a move-heavy micro profile,
// and under the nonspec-ER schemes on every benchmark profile, whose
// repeated moves map one arch register to the same shared register twice
// while early releases are pending.
func TestEquivalenceMoveElimination(t *testing.T) {
	p := workload.Micro(81)
	p.MoveFrac = 0.2 // plenty of moves
	micro := p.Generate()
	type run struct {
		name   string
		prog   *program.Program
		scheme config.ReleaseScheme
		n      uint64
	}
	var runs []run
	for _, scheme := range config.Schemes() {
		runs = append(runs, run{scheme.String(), micro, scheme, 15000})
	}
	for _, p := range workload.Profiles() {
		prog := p.Generate()
		for _, scheme := range []config.ReleaseScheme{config.SchemeNonSpecER, config.SchemeCombined} {
			runs = append(runs, run{p.Name + "/" + scheme.String(), prog, scheme, 6000})
		}
	}
	for _, r := range runs {
		cfg := testConfig().WithScheme(r.scheme).WithPhysRegs(64)
		cfg.MoveElimination = true
		prog := r.prog
		t.Run(r.name, func(t *testing.T) {
			cpu := New(cfg, prog)
			emu := program.NewEmulator(prog)
			mismatches := 0
			cpu.OnCommit = func(got program.Record) {
				want, _ := emu.Step()
				if got != want {
					mismatches++
				}
			}
			cpu.Run(r.n)
			if mismatches > 0 {
				t.Fatalf("%d mismatches with move elimination", mismatches)
			}
			if cpu.Engine.Stats.Get("rename.moveelim") == 0 {
				t.Error("no moves eliminated")
			}
			if err := cpu.Engine.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMoveEliminationReducesPressure: eliminating moves lowers allocation
// demand and should never slow the machine down at small register files.
func TestMoveEliminationReducesPressure(t *testing.T) {
	p := workload.Micro(83)
	p.MoveFrac = 0.25
	prog := p.Generate()
	cfg := testConfig().WithScheme(config.SchemeBaseline).WithPhysRegs(56)
	off := New(cfg, prog).Run(15000)
	cfg.MoveElimination = true
	on := New(cfg, prog).Run(15000)
	if on.Cycles > off.Cycles+off.Cycles/50 {
		t.Errorf("move elimination slowed the run: %d vs %d cycles", on.Cycles, off.Cycles)
	}
}

// TestEquivalenceCheckpointBudget: with a small checkpoint budget, recovery
// at non-checkpointed branches uses nearest-checkpoint + forward replay
// (§4.2.1); architectural state must be unaffected, under every scheme.
func TestEquivalenceCheckpointBudget(t *testing.T) {
	prog := workload.Micro(91).Generate()
	for _, budget := range []int{1, 4} {
		for _, scheme := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeCombined} {
			cfg := testConfig().WithScheme(scheme).WithPhysRegs(72)
			cfg.CheckpointBudget = budget
			t.Run(scheme.String()+"/"+itoa(budget), func(t *testing.T) {
				res := runAndCompare(t, cfg, prog, 12000)
				if res.Mispredicts == 0 {
					t.Error("need mispredicts to exercise replay recovery")
				}
			})
		}
	}
}

// TestCheckpointBudgetRespected: the outstanding checkpoint count never
// exceeds the budget.
func TestCheckpointBudgetRespected(t *testing.T) {
	prog := workload.Micro(93).Generate()
	cfg := testConfig().WithScheme(config.SchemeATR)
	cfg.CheckpointBudget = 3
	cpu := New(cfg, prog)
	for i := 0; i < 20000; i++ {
		cpu.step()
		if cpu.cpCount > 3 {
			t.Fatalf("cycle %d: %d outstanding checkpoints, budget 3", cpu.cycle, cpu.cpCount)
		}
		if cpu.cpCount < 0 {
			t.Fatalf("cycle %d: negative checkpoint count", cpu.cycle)
		}
	}
}

// TestInvariantsUnderStress steps a maximally-featured configuration
// (combined scheme + move elimination + checkpoint budget + interrupts +
// faults) and checks the engine's free-list invariants continuously, not
// just at the end of the run.
func TestInvariantsUnderStress(t *testing.T) {
	p := workload.Micro(97)
	p.MoveFrac = 0.15
	prog := p.Generate()
	cfg := testConfig().WithScheme(config.SchemeCombined).WithPhysRegs(64)
	cfg.MoveElimination = true
	cfg.CheckpointBudget = 2
	cfg.InterruptMode = config.InterruptFlush
	cfg.InterruptInterval = 700
	cfg.InterruptCost = 30
	cfg.FaultRate = 5
	cpu := New(cfg, prog)
	emu := program.NewEmulator(prog)
	mismatches := 0
	cpu.OnCommit = func(got program.Record) {
		want, _ := emu.Step()
		if got != want {
			mismatches++
		}
	}
	for i := 0; i < 60000; i++ {
		cpu.step()
		if i%64 == 0 {
			if err := cpu.Engine.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cpu.cycle, err)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d oracle mismatches under stress", mismatches)
	}
	if cpu.committed < 1000 {
		t.Fatalf("no forward progress: %d committed", cpu.committed)
	}
}
