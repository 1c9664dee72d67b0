package program

import (
	"testing"
	"testing/quick"

	"atr/internal/isa"
)

func TestMixDeterministicAndSpread(t *testing.T) {
	if Mix(42) != Mix(42) {
		t.Fatal("Mix not deterministic")
	}
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		seen[Mix(i)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("Mix collisions in first 1000 values: %d unique", len(seen))
	}
}

func TestCmpFlags(t *testing.T) {
	tests := []struct {
		a, b uint64
		want uint64
	}{
		{5, 5, FlagZero},
		{3, 5, FlagCarry | FlagSign | func() uint64 {
			a, b := uint64(3), uint64(5)
			d := a - b // wraps to ...11111110
			n := 0
			for x := d; x != 0; x &= x - 1 {
				n++
			}
			if n%2 == 1 {
				return FlagOdd
			}
			return 0
		}()},
	}
	for _, tt := range tests {
		if got := cmpFlags(tt.a, tt.b); got != tt.want {
			t.Errorf("cmpFlags(%d,%d) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
	if cmpFlags(7, 5)&FlagCarry != 0 {
		t.Error("7 >= 5 should not set carry")
	}
}

func TestPredTaken(t *testing.T) {
	if !predTaken(PredZero, FlagZero) || predTaken(PredZero, 0) {
		t.Error("PredZero wrong")
	}
	if predTaken(PredNotZero, FlagZero) || !predTaken(PredNotZero, 0) {
		t.Error("PredNotZero wrong")
	}
	if !predTaken(PredCarry, FlagCarry) || predTaken(PredNoCarry, FlagCarry) {
		t.Error("carry predicates wrong")
	}
	// Every predicate and its complement disagree on every flag word.
	for f := uint64(0); f < 16; f++ {
		for p := int64(0); p < numPreds; p += 2 {
			if predTaken(p, f) == predTaken(p|1, f) {
				t.Errorf("pred %d and %d agree on flags %#x", p, p|1, f)
			}
		}
	}
}

func TestEffAddr(t *testing.T) {
	in := &isa.Inst{Op: isa.OpLoad, Target: 0x1000, Span: 64, Imm: 8}
	if got := EffAddr(in, 0); got != 0x1008 {
		t.Errorf("EffAddr = %#x, want 0x1008", got)
	}
	// Wraps within span.
	if got := EffAddr(in, 100); got < 0x1000 || got >= 0x1000+64 {
		t.Errorf("EffAddr = %#x outside region", got)
	}
	if got := EffAddr(in, 3); got%8 != 0 {
		t.Errorf("EffAddr = %#x not aligned", got)
	}
	// Zero span pins to base.
	in2 := &isa.Inst{Op: isa.OpLoad, Target: 0x2000}
	if got := EffAddr(in2, 12345); got != 0x2000 {
		t.Errorf("zero-span EffAddr = %#x, want 0x2000", got)
	}
}

func TestMemoryDefaultAndWrite(t *testing.T) {
	m1 := NewMemory(7)
	m2 := NewMemory(7)
	if m1.Read(0x100) != m2.Read(0x100) {
		t.Error("same-seed memories disagree on default contents")
	}
	m3 := NewMemory(8)
	if m1.Read(0x100) == m3.Read(0x100) {
		t.Error("different seeds should give different defaults (overwhelmingly)")
	}
	m1.Write(0x104, 99) // unaligned: lands in word 0x100
	if m1.Read(0x100) != 99 {
		t.Error("write not visible at aligned address")
	}
	if m1.Written() != 1 {
		t.Errorf("Written = %d", m1.Written())
	}
}

func buildLoop(t *testing.T, iters int64) *Program {
	t.Helper()
	// r0 = iters; loop: r1 = r1 + r0; r0 = r0 - 1; cmp r0, 0; jne loop
	b := NewBuilder(1, 2)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, iters) // r0 = iters
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 0)     // r1 = 0
	b.Label("loop")
	b.ALU(isa.R1, isa.R1, isa.R0, 0)
	b.ALU(isa.R0, isa.R0, isa.RegInvalid, -1)
	b.Cmp(isa.R0, isa.RegInvalid, 0)
	b.Branch(PredNotZero, "loop")
	return b.MustBuild()
}

func TestEmulatorLoop(t *testing.T) {
	p := buildLoop(t, 5)
	e := NewEmulator(p)
	recs := e.Run(1000)
	if !e.Done {
		t.Fatal("emulator did not halt")
	}
	// 2 setup + 5 iterations * 4 instructions.
	if len(recs) != 2+5*4 {
		t.Fatalf("executed %d instructions, want 22", len(recs))
	}
	// r1 = 5+4+3+2+1 = 15.
	if e.Regs[isa.R1] != 15 {
		t.Errorf("r1 = %d, want 15", e.Regs[isa.R1])
	}
	if e.Regs[isa.R0] != 0 {
		t.Errorf("r0 = %d, want 0", e.Regs[isa.R0])
	}
	// The final branch must be not-taken.
	last := recs[len(recs)-1]
	if last.Op != isa.OpBranch || last.Taken {
		t.Errorf("last record = %+v, want not-taken branch", last)
	}
}

func TestEmulatorLoadStore(t *testing.T) {
	b := NewBuilder(3, 4)
	const base, span = 0x1000, 256
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 16) // r0 = 16
	b.ALU(isa.R2, isa.RegInvalid, isa.RegInvalid, 7)  // r2 = 7
	b.Store(isa.R0, isa.R2, base, span, 0)            // mem[base+16] = 7
	b.Load(isa.R3, isa.R0, base, span, 0)             // r3 = mem[base+16]
	p := b.MustBuild()
	e := NewEmulator(p)
	e.Run(10)
	if e.Regs[isa.R3] != 7 {
		t.Errorf("r3 = %d, want 7 (store-to-load)", e.Regs[isa.R3])
	}
	if e.Mem.Read(base+16) != 7 {
		t.Error("store not in memory")
	}
}

func TestEmulatorCallRet(t *testing.T) {
	b := NewBuilder(5, 6)
	b.Call(isa.R14, "fn")
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 111) // after return
	b.Jump("end")
	b.Label("fn")
	b.ALU(isa.R2, isa.RegInvalid, isa.RegInvalid, 222)
	b.Ret(isa.R14)
	b.Label("end")
	b.Nop()
	p := b.MustBuild()
	e := NewEmulator(p)
	e.Run(100)
	if e.Regs[isa.R1] != 111 || e.Regs[isa.R2] != 222 {
		t.Errorf("r1=%d r2=%d, want 111/222", e.Regs[isa.R1], e.Regs[isa.R2])
	}
	if !e.Done {
		t.Error("program should halt")
	}
}

func TestEmulatorIndirectJump(t *testing.T) {
	b := NewBuilder(9, 9)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 1) // selector = 1
	b.JumpInd(isa.R0, "a", "b", "c")
	b.Label("a")
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 10)
	b.Jump("end")
	b.Label("b")
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 20)
	b.Jump("end")
	b.Label("c")
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 30)
	b.Jump("end")
	b.Label("end")
	b.Nop()
	e := NewEmulator(b.MustBuild())
	e.Run(100)
	if e.Regs[isa.R1] != 20 {
		t.Errorf("r1 = %d, want 20 (selector 1 -> label b)", e.Regs[isa.R1])
	}
}

func TestEmulatorFusedBranch(t *testing.T) {
	b := NewBuilder(11, 12)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 3)
	b.FusedBranch(isa.R0, isa.RegInvalid, PredNotZero, 3, "neq") // flags(3 vs 3) -> zero -> not taken
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 1)
	b.Label("neq")
	b.Nop()
	e := NewEmulator(b.MustBuild())
	recs := e.Run(100)
	if e.Regs[isa.R1] != 1 {
		t.Errorf("fused branch taken, should fall through; r1 = %d", e.Regs[isa.R1])
	}
	// The fused branch must have written flags with FlagZero.
	if e.Regs[isa.Flags]&FlagZero == 0 {
		t.Error("fused branch did not write flags")
	}
	found := false
	for _, r := range recs {
		if r.Op == isa.OpBranch {
			found = true
			if r.DstVals[0]&FlagZero == 0 {
				t.Error("branch record missing flag value")
			}
		}
	}
	if !found {
		t.Error("no branch executed")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(0, 0)
	b.Jump("nowhere")
	if _, err := b.Build(); err == nil {
		t.Error("undefined label should error")
	}
	b2 := NewBuilder(0, 0)
	b2.Label("x").Nop().Label("x")
	if _, err := b2.Build(); err == nil {
		t.Error("duplicate label should error")
	}
}

func TestBuilderMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on error")
		}
	}()
	b := NewBuilder(0, 0)
	b.Jump("missing")
	b.MustBuild()
}

func TestInitialRegsDeterministic(t *testing.T) {
	p1 := &Program{RegSeed: 5}
	p2 := &Program{RegSeed: 5}
	p3 := &Program{RegSeed: 6}
	if p1.InitialRegs() != p2.InitialRegs() {
		t.Error("same seed, different initial regs")
	}
	if p1.InitialRegs() == p3.InitialRegs() {
		t.Error("different seeds should differ")
	}
}

func TestHaltPC(t *testing.T) {
	p := &Program{Code: make([]isa.Inst, 4)}
	if p.HaltPC() != 4 {
		t.Errorf("HaltPC = %d", p.HaltPC())
	}
	if p.ValidPC(4) || !p.ValidPC(3) {
		t.Error("ValidPC wrong at boundary")
	}
}

// Property: Eval is a pure function — same inputs, same outputs.
func TestEvalPure(t *testing.T) {
	f := func(opByte uint8, a, b uint64, imm int64) bool {
		op := isa.Op(opByte % uint8(isa.NumOps))
		in := isa.NewInst(op, nil, []isa.Reg{isa.R1, isa.R2})
		if op != isa.OpStore && op != isa.OpBranch && op != isa.OpJump &&
			op != isa.OpJumpInd && op != isa.OpRet && op != isa.OpNop {
			in = isa.NewInst(op, []isa.Reg{isa.R0}, []isa.Reg{isa.R1, isa.R2})
		}
		in.Imm = imm
		in.Target = 1
		in.Span = 128
		loaded := Mix(EffAddr(&in, a))
		// The second outcome starts dirty: Eval must overwrite all of it.
		var o1 Outcome
		o2 := Outcome{DstVals: [isa.MaxDsts]uint64{^a, ^b}, EA: ^a, StoreVal: ^b, Taken: true, NextPC: ^uint64(0)}
		Eval(&in, 10, a, b, loaded, &o1)
		Eval(&in, 10, a, b, loaded, &o2)
		return o1 == o2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conditional branch NextPC is either fallthrough or the target.
func TestBranchNextPC(t *testing.T) {
	f := func(flags uint64, pred uint8) bool {
		in := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
		in.Imm = int64(pred % numPreds)
		in.Target = 77
		var out Outcome
		Eval(&in, 5, flags, 0, 0, &out)
		if out.Taken {
			return out.NextPC == 77
		}
		return out.NextPC == 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmulatorHaltsAtInvalidPC(t *testing.T) {
	p := NewBuilder(0, 0).Nop().MustBuild()
	e := NewEmulator(p)
	if _, ok := e.Step(); !ok {
		t.Fatal("first step should succeed")
	}
	if _, ok := e.Step(); ok {
		t.Error("second step should report halt")
	}
	if !e.Done {
		t.Error("Done not set")
	}
}

// TestBuilderFullOpCoverage exercises every builder method and checks the
// emulator's semantics for each op family against hand-computed values.
func TestBuilderFullOpCoverage(t *testing.T) {
	b := NewBuilder(21, 22)
	b.ALU(isa.R0, isa.RegInvalid, isa.RegInvalid, 10) // r0 = 10
	b.ALU(isa.R1, isa.RegInvalid, isa.RegInvalid, 3)  // r1 = 3
	b.LEA(isa.R2, isa.R0, isa.R1, 4)                  // r2 = 10 + 3<<3 + 4 = 38
	b.Move(isa.R3, isa.R2)                            // r3 = 38
	b.Mul(isa.R4, isa.R0, isa.R1, 5)                  // r4 = mix(...)
	b.Div(isa.R5, isa.R2, isa.R1, 1)                  // r5 = 38/3 + 1 = 13
	b.Cvt(isa.R6, isa.R0, 0)                          // r6 = rotl(10, 32)
	b.FPMove(isa.F1, isa.F0)
	b.FPAdd(isa.F2, isa.F0, isa.F1, 7)
	b.FPMul(isa.F3, isa.F1, isa.F2, 9)
	b.FPDiv(isa.F4, isa.F2, isa.F3, 1)
	b.BranchReg(isa.R1, PredNotZero, "target") // r1=3: flags view 3 has bit0 -> "zero set" -> jne not taken
	b.Nop()
	b.Label("target")
	b.CallInd(isa.R14, isa.R1, "fa", "fb") // selector 3 % 2 = 1 -> fb
	b.Jump("end")
	b.Label("fa")
	b.ALU(isa.R7, isa.RegInvalid, isa.RegInvalid, 70)
	b.Ret(isa.R14)
	b.Label("fb")
	b.ALU(isa.R7, isa.RegInvalid, isa.RegInvalid, 71)
	b.Ret(isa.R14)
	b.Label("end")
	b.Raw(isa.NewInst(isa.OpNop, nil, nil))
	p := b.MustBuild()
	if p.Len() != 20 {
		t.Fatalf("program length = %d", p.Len())
	}
	e := NewEmulator(p)
	e.Run(100)
	if e.Steps() == 0 || !e.Done {
		t.Fatal("did not run to completion")
	}
	if e.Regs[isa.R2] != 38 {
		t.Errorf("lea: r2 = %d, want 38", e.Regs[isa.R2])
	}
	if e.Regs[isa.R3] != 38 {
		t.Errorf("move: r3 = %d", e.Regs[isa.R3])
	}
	if e.Regs[isa.R5] != 13 {
		t.Errorf("div: r5 = %d, want 13", e.Regs[isa.R5])
	}
	if e.Regs[isa.R7] != 71 {
		t.Errorf("callind selected wrong target: r7 = %d, want 71", e.Regs[isa.R7])
	}
	if e.Regs[isa.F2] != e.Regs[isa.F0]+e.Regs[isa.F1]+7 {
		t.Error("fpadd wrong")
	}
}
