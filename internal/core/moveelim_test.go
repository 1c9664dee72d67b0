package core

import (
	"testing"

	"atr/internal/config"
	"atr/internal/isa"
)

func meCfg(s config.ReleaseScheme) config.Config {
	c := testCfg(s)
	c.MoveElimination = true
	return c
}

func move(dst, src isa.Reg) isa.Inst {
	return isa.NewInst(isa.OpMove, []isa.Reg{dst}, []isa.Reg{src})
}

func TestMoveEliminationShares(t *testing.T) {
	e := NewEngine(meCfg(config.SchemeBaseline))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	free := e.FreeCount(isa.ClassGPR)
	mv := move(isa.R3, isa.R1)
	outM := e.Rename(&mv, 2)
	if !outM.Dsts[0].Eliminated {
		t.Fatal("move not eliminated")
	}
	if outM.Dsts[0].New != out1.Dsts[0].New {
		t.Fatalf("destination %v does not alias source %v", outM.Dsts[0].New, out1.Dsts[0].New)
	}
	if e.FreeCount(isa.ClassGPR) != free {
		t.Error("elimination must not allocate")
	}
	if e.Lookup(isa.R3) != out1.Dsts[0].New {
		t.Error("SRT not aliased")
	}
	if e.Stats.Get("rename.moveelim") != 1 {
		t.Error("elimination not counted")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMoveEliminationRefCountRelease(t *testing.T) {
	e := NewEngine(meCfg(config.SchemeBaseline))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	p := out1.Dsts[0].New
	mv := move(isa.R3, isa.R1)
	e.Rename(&mv, 2)

	// Redefine r1: its mapping releases one reference; the register stays
	// live for r3.
	re1 := alu(isa.R1, isa.R4)
	o1 := e.Rename(&re1, 3)
	e.RedefinerCommitted(o1.Dsts[0], 5)
	if e.banks[p.Class].pregs[p.Tag].free {
		t.Fatal("shared register freed while a mapping survives")
	}
	if e.banks[p.Class].pregs[p.Tag].refs != 1 {
		t.Fatalf("refs = %d, want 1", e.banks[p.Class].pregs[p.Tag].refs)
	}
	// Redefine r3: the last reference goes, the register frees.
	re3 := alu(isa.R3, isa.R4)
	o3 := e.Rename(&re3, 6)
	e.RedefinerCommitted(o3.Dsts[0], 8)
	if !e.banks[p.Class].pregs[p.Tag].free {
		t.Error("last release did not free the shared register")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMoveEliminationWithATRClaim(t *testing.T) {
	// The paper's §6 composition: an atomic redefinition of a shared
	// register's mapping releases one reference early.
	e := NewEngine(meCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	p := out1.Dsts[0].New
	mv := move(isa.R3, isa.R1)
	outM := e.Rename(&mv, 2)
	if e.banks[p.Class].pregs[p.Tag].refs != 2 {
		t.Fatal("setup: expected sharing")
	}
	// The move reads its source (it is a consumer of p like any other).
	e.ConsumerIssued(outM.Srcs[0], 2)
	// Atomic redefinition of r1: claim + early decrement.
	re1 := alu(isa.R1, isa.R4)
	o1 := e.Rename(&re1, 3)
	if o1.Dsts[0].PrevValid {
		t.Fatal("atomic redefinition of a shared mapping should claim")
	}
	if e.Stats.Get("release.atr") != 1 {
		t.Fatalf("release.atr = %d, want 1 (early reference drop)", e.Stats.Get("release.atr"))
	}
	if e.banks[p.Class].pregs[p.Tag].free {
		t.Fatal("register freed while r3's mapping lives")
	}
	if e.banks[p.Class].pregs[p.Tag].refs != 1 {
		t.Errorf("refs = %d, want 1 after early decrement", e.banks[p.Class].pregs[p.Tag].refs)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMoveEliminationFlushDecrements(t *testing.T) {
	e := NewEngine(meCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	p := out1.Dsts[0].New
	cp := e.TakeCheckpoint()
	mv := move(isa.R3, isa.R1)
	outM := e.Rename(&mv, 2)
	if e.banks[p.Class].pregs[p.Tag].refs != 2 {
		t.Fatal("setup: expected refs 2")
	}
	// The move is flushed: its reference drops, the original survives.
	e.FlushInstr(&outM, 4)
	e.RestoreCheckpoint(cp)
	if e.banks[p.Class].pregs[p.Tag].refs != 1 {
		t.Errorf("refs = %d after move flush, want 1", e.banks[p.Class].pregs[p.Tag].refs)
	}
	if e.banks[p.Class].pregs[p.Tag].free {
		t.Error("original allocation freed by the move's flush")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMoveEliminationDisabledByDefault(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	mv := move(isa.R3, isa.R1)
	outM := e.Rename(&mv, 2)
	if outM.Dsts[0].Eliminated {
		t.Error("elimination fired with MoveElimination off")
	}
	if outM.Dsts[0].New == out1.Dsts[0].New {
		t.Error("move must allocate when elimination is off")
	}
}

// TestMoveEliminationRepeatedMappingER: `mov r1, r4` twice, each followed
// by a redefinition of r1, makes two mappings r1 -> p4.1 with the same
// key. nonspec-ER drops both references early, before either redefiner
// commits; each commit must then skip exactly one early mark. If the
// second mark is lost, the second commit releases p4 a third time and
// frees it while r4 still maps it (a wrong-value or deadlock bug the
// pipeline hit on lbm with the combined scheme).
func TestMoveEliminationRepeatedMappingER(t *testing.T) {
	e := NewEngine(meCfg(config.SchemeNonSpecER))
	p := e.Lookup(isa.R4)
	var redefs []DstAlloc
	for i := 0; i < 2; i++ {
		mv := move(isa.R1, isa.R4)
		outM := e.Rename(&mv, uint64(10*i+1))
		if !outM.Dsts[0].Eliminated {
			t.Fatal("move not eliminated")
		}
		e.ConsumerIssued(outM.Srcs[0], uint64(10*i+1))
		re := alu(isa.R1, isa.R2)
		out := e.Rename(&re, uint64(10*i+2))
		complete(e, &out, uint64(10*i+3))
		if out.Dsts[0].Prev != p {
			t.Fatalf("redefinition %d: prev = %v, want %v", i, out.Dsts[0].Prev, p)
		}
		redefs = append(redefs, out.Dsts[0])
	}
	for i, d := range redefs {
		e.RedefinerPrecommitted(d, uint64(30+i))
	}
	if got := e.Stats.Get("release.er"); got != 2 {
		t.Fatalf("release.er = %d, want 2 (both mappings dropped early)", got)
	}
	for i, d := range redefs {
		e.RedefinerCommitted(d, uint64(40+i))
	}
	if e.banks[p.Class].pregs[p.Tag].free {
		t.Fatal("register freed while r4 still maps it")
	}
	if refs := e.banks[p.Class].pregs[p.Tag].refs; refs != 1 {
		t.Fatalf("refs = %d, want 1 (r4's mapping)", refs)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
