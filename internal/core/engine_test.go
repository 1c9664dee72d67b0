package core

import (
	"testing"
	"testing/quick"

	"atr/internal/config"
	"atr/internal/isa"
)

func testCfg(s config.ReleaseScheme) config.Config {
	c := config.GoldenCove().WithScheme(s).WithPhysRegs(64)
	return c
}

func alu(dst isa.Reg, srcs ...isa.Reg) isa.Inst {
	return isa.NewInst(isa.OpALU, []isa.Reg{dst}, srcs)
}

func load(dst isa.Reg, srcs ...isa.Reg) isa.Inst {
	return isa.NewInst(isa.OpLoad, []isa.Reg{dst}, srcs)
}

func branch() isa.Inst {
	return isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
}

func fusedBranch(a, b isa.Reg) isa.Inst {
	return isa.NewInst(isa.OpBranch, []isa.Reg{isa.Flags}, []isa.Reg{a, b})
}

func TestRenameBasics(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	before := e.Lookup(isa.R1)
	in := alu(isa.R1, isa.R2, isa.R3)
	out := e.Rename(&in, 10)
	if out.NumDsts != 1 || out.NumSrcs != 2 {
		t.Fatalf("counts: %d dsts %d srcs", out.NumDsts, out.NumSrcs)
	}
	d := out.Dsts[0]
	if d.Prev != before {
		t.Errorf("prev = %v, want %v", d.Prev, before)
	}
	if !d.PrevValid {
		t.Error("baseline must keep prev valid")
	}
	if e.Lookup(isa.R1) != d.New {
		t.Error("SRT not updated")
	}
	if d.New == before {
		t.Error("new allocation must differ from previous")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRenameSrcLookup(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	in1 := alu(isa.R5, isa.R6)
	out1 := e.Rename(&in1, 1)
	in2 := alu(isa.R7, isa.R5)
	out2 := e.Rename(&in2, 2)
	if out2.Srcs[0] != out1.Dsts[0].New {
		t.Errorf("consumer src %v, want producer dst %v", out2.Srcs[0], out1.Dsts[0].New)
	}
}

func TestConsumerCountSaturation(t *testing.T) {
	cfg := testCfg(config.SchemeATR)
	cfg.ConsumerCounterBits = 2 // sentinel at 3
	e := NewEngine(cfg)
	in1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&in1, 1)
	p := &e.banks[isa.ClassGPR].pregs[out1.Dsts[0].New.Tag]
	for i := 0; i < 5; i++ {
		c := alu(isa.R8, isa.R1)
		e.Rename(&c, 2)
	}
	if p.count != 3 {
		t.Errorf("count = %d, want saturated 3", p.count)
	}
	// Saturated: redefinition must not claim.
	re := alu(isa.R1, isa.R3)
	outR := e.Rename(&re, 3)
	if !outR.Dsts[0].PrevValid {
		t.Error("saturated counter must prevent ATR claim")
	}
}

// poison renames a leading branch, marking all initial mappings
// no-early-release. Real flushes always have such an older flusher, so tests
// that flush (or that want clean release accounting) start this way.
func poison(e *Engine) {
	br := branch()
	e.Rename(&br, 0)
}

// complete marks every destination of a rename as written back (producer
// execution), which is a release precondition: registers are never freed
// with a write in flight.
func complete(e *Engine, out *RenameOut, cycle uint64) {
	for i := range out.Dsts {
		if out.Dsts[i].New.Valid() {
			e.ProducerCompleted(out.Dsts[i].New, cycle)
		}
	}
}

func TestATRClaimAtomicRegion(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	// I1: r1 <- r2,r3 ; I2: r2 <- r1 ; I3: r1 <- r4 (redefine, atomic)
	i1 := alu(isa.R1, isa.R2, isa.R3)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R2, isa.R1)
	out2 := e.Rename(&i2, 2)
	complete(e, &out2, 2)
	i3 := alu(isa.R1, isa.R4)
	out3 := e.Rename(&i3, 3)
	if out3.Dsts[0].PrevValid {
		t.Fatal("atomic redefinition should claim (invalidate prev)")
	}
	if out3.Dsts[0].Prev != out1.Dsts[0].New {
		t.Fatal("claim target mismatch")
	}
	// Not yet released: one consumer (I2) pending.
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("released before consumer issued")
	}
	// Consumer issues -> release fires (redefined && count==0).
	e.ConsumerIssued(out2.Srcs[0], 5)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("ATR release did not fire")
	}
	if e.Stats.Get("release.atr") != 1 {
		t.Errorf("release.atr = %d", e.Stats.Get("release.atr"))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	_ = out3
}

func TestATRReleaseConsumeThenRedefine(t *testing.T) {
	// The release must also fire when consumption completes before
	// redefinition (the two orders of Fig 3).
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R2, isa.R1)
	out2 := e.Rename(&i2, 2)
	complete(e, &out2, 2)
	e.ConsumerIssued(out2.Srcs[0], 3) // consume first
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("released before redefinition")
	}
	i3 := alu(isa.R1, isa.R4) // now redefine
	e.Rename(&i3, 4)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("ATR release did not fire on redefine after consume")
	}
}

func TestBranchPoisonsRegion(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	i1 := alu(isa.R1, isa.R2)
	e.Rename(&i1, 1)
	br := branch()
	e.Rename(&br, 2)
	i3 := alu(isa.R1, isa.R4)
	out3 := e.Rename(&i3, 3)
	if !out3.Dsts[0].PrevValid {
		t.Error("branch inside region must prevent claim")
	}
}

func TestLoadPoisonsRegion(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	i1 := alu(isa.R1, isa.R2)
	e.Rename(&i1, 1)
	ld := load(isa.R9, isa.R10)
	e.Rename(&ld, 2)
	i3 := alu(isa.R1, isa.R4)
	out3 := e.Rename(&i3, 3)
	if !out3.Dsts[0].PrevValid {
		t.Error("load inside region must prevent claim (precise exceptions)")
	}
}

func TestFaultingRedefinerPoisonsItsOwnPrev(t *testing.T) {
	// A load that itself redefines r1 must mark r1's current mapping
	// before the eligibility check: if the load faults, r1's previous
	// value is live architectural state.
	e := NewEngine(testCfg(config.SchemeATR))
	i1 := alu(isa.R1, isa.R2)
	e.Rename(&i1, 1)
	ld := load(isa.R1, isa.R3) // redefines r1, can fault
	out := e.Rename(&ld, 2)
	if !out.Dsts[0].PrevValid {
		t.Error("a faultable redefiner must not claim its own previous mapping")
	}
}

func TestFaultClassDoesNotPoisonOwnDst(t *testing.T) {
	// The load's own destination starts a fresh region: a later atomic
	// redefinition of it may claim (if the load faults, its destination
	// and all its consumers flush together).
	e := NewEngine(testCfg(config.SchemeATR))
	ld := load(isa.R1, isa.R3)
	e.Rename(&ld, 1)
	i2 := alu(isa.R1, isa.R4)
	out := e.Rename(&i2, 2)
	if out.Dsts[0].PrevValid {
		t.Error("load's own destination should be claimable by a following atomic redefiner")
	}
}

func TestBranchClassPoisonsOwnDst(t *testing.T) {
	// A fused compare-and-branch commits even when mispredicted, so its
	// flag output must not be claimable by a younger redefiner.
	e := NewEngine(testCfg(config.SchemeATR))
	fb := fusedBranch(isa.R1, isa.R2)
	e.Rename(&fb, 1)
	cmp := isa.NewInst(isa.OpCmp, []isa.Reg{isa.Flags}, []isa.Reg{isa.R3})
	out := e.Rename(&cmp, 2)
	if !out.Dsts[0].PrevValid {
		t.Error("branch-class flusher's own destination must be no-early-release")
	}
}

func TestRedefineDelayDefersRelease(t *testing.T) {
	cfg := testCfg(config.SchemeATR)
	cfg.RedefineDelay = 2
	e := NewEngine(cfg)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 10)
	complete(e, &out1, 10)
	i3 := alu(isa.R1, isa.R4) // immediate redefine, zero consumers
	out3 := e.Rename(&i3, 10)
	if out3.Dsts[0].PrevValid {
		t.Fatal("claim should still happen with delay")
	}
	p1 := out1.Dsts[0].New
	e.Tick(10)
	e.Tick(11)
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("released before delay elapsed")
	}
	e.Tick(12)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("delayed redefine signal did not release")
	}
}

func TestBaselineCommitRelease(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	i2 := alu(isa.R1, isa.R3)
	out2 := e.Rename(&i2, 2)
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("baseline must not release early")
	}
	e.RedefinerPrecommitted(out2.Dsts[0], 5)
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("baseline must not release at precommit")
	}
	e.RedefinerCommitted(out2.Dsts[0], 8)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("baseline commit release missing")
	}
	if e.Stats.Get("release.commit") != 1 {
		t.Errorf("release.commit = %d", e.Stats.Get("release.commit"))
	}
}

func TestNonSpecERReleasesAtPrecommit(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeNonSpecER))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	c := alu(isa.R5, isa.R1)
	outC := e.Rename(&c, 2)
	re := alu(isa.R1, isa.R3)
	outR := e.Rename(&re, 3)
	if !outR.Dsts[0].PrevValid {
		t.Fatal("nonspec-ER never invalidates prev")
	}
	p1 := out1.Dsts[0].New
	e.ConsumerIssued(outC.Srcs[0], 4)
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("ER must wait for precommit")
	}
	e.RedefinerPrecommitted(outR.Dsts[0], 6)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("ER release at precommit missing")
	}
	// Commit must not double free.
	e.RedefinerCommitted(outR.Dsts[0], 9)
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if e.Stats.Get("release.er") != 1 || e.Stats.Get("release.commit") != 0 {
		t.Errorf("releases: er=%d commit=%d", e.Stats.Get("release.er"), e.Stats.Get("release.commit"))
	}
}

func TestNonSpecERPrecommitBeforeConsume(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeNonSpecER))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	c := alu(isa.R5, isa.R1)
	outC := e.Rename(&c, 2)
	re := alu(isa.R1, isa.R3)
	outR := e.Rename(&re, 3)
	e.RedefinerPrecommitted(outR.Dsts[0], 4) // precommit first
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("consumer still pending")
	}
	e.ConsumerIssued(outC.Srcs[0], 5)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("ER release on last consume after precommit missing")
	}
}

func TestATRDoesNotFireUnderBaselineOrER(t *testing.T) {
	for _, s := range []config.ReleaseScheme{config.SchemeBaseline, config.SchemeNonSpecER} {
		e := NewEngine(testCfg(s))
		i1 := alu(isa.R1, isa.R2)
		e.Rename(&i1, 1)
		i3 := alu(isa.R1, isa.R4)
		out := e.Rename(&i3, 2)
		if !out.Dsts[0].PrevValid {
			t.Errorf("%v: prev invalidated without ATR", s)
		}
		if e.Stats.Get("atr.claims") != 0 {
			t.Errorf("%v: claims registered", s)
		}
	}
}

func TestCombinedUsesBothMechanisms(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeCombined))
	poison(e)
	// Atomic region -> ATR claim.
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R1, isa.R3)
	out2 := e.Rename(&i2, 2)
	if out2.Dsts[0].PrevValid {
		t.Error("combined should claim atomic region")
	}
	p1 := out1.Dsts[0].New
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("combined ATR release missing")
	}
	// Non-atomic (branch-poisoned) region -> ER release at precommit.
	i3 := alu(isa.R4, isa.R2)
	out3 := e.Rename(&i3, 3)
	complete(e, &out3, 3)
	e.ConsumerIssued(out3.Srcs[0], 3)
	br := branch()
	e.Rename(&br, 4)
	i4 := alu(isa.R4, isa.R3)
	out4 := e.Rename(&i4, 5)
	if !out4.Dsts[0].PrevValid {
		t.Fatal("poisoned region must not claim")
	}
	e.RedefinerPrecommitted(out4.Dsts[0], 7)
	p3 := out3.Dsts[0].New
	if !e.banks[p3.Class].pregs[p3.Tag].free {
		t.Error("combined ER release missing")
	}
	if e.Stats.Get("release.atr") != 1 || e.Stats.Get("release.er") != 1 {
		t.Errorf("atr=%d er=%d", e.Stats.Get("release.atr"), e.Stats.Get("release.er"))
	}
}

func TestCommitAfterATRReleaseDoesNotDoubleFree(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R1, isa.R3)
	out2 := e.Rename(&i2, 2)
	// ATR released at rename (no consumers, producer written). Now the
	// redefiner commits.
	e.RedefinerPrecommitted(out2.Dsts[0], 5)
	e.RedefinerCommitted(out2.Dsts[0], 6)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Get("release.atr") != 1 || e.Stats.Get("release.commit") != 0 {
		t.Errorf("atr=%d commit=%d", e.Stats.Get("release.atr"), e.Stats.Get("release.commit"))
	}
}

func TestCommitAfterReallocationDoesNotFreeStranger(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R1, isa.R3)
	out2 := e.Rename(&i2, 2)
	p1 := out1.Dsts[0].New
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("setup: p1 should be ATR-released")
	}
	// Re-allocate p1 to an unrelated instruction by renaming until the
	// free list hands it back.
	var got Alloc
	for i := 0; i < e.PhysRegsPerClass(); i++ {
		in := alu(isa.R6, isa.R7)
		o := e.Rename(&in, 10)
		complete(e, &o, 10)
		if o.Dsts[0].New.Tag == p1.Tag {
			got = o.Dsts[0].New
			break
		}
	}
	if !got.Valid() {
		t.Fatal("setup: p1 never re-allocated")
	}
	if got.Gen == p1.Gen {
		t.Fatal("generation must bump on re-allocation")
	}
	// Redefiner of the original region commits: must not free p1 again.
	e.RedefinerCommitted(out2.Dsts[0], 20)
	if e.banks[got.Class].pregs[got.Tag].free {
		t.Error("commit freed a re-allocated register")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFlushReclaimsAllocations(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	cp := e.TakeCheckpoint()
	freeBefore := e.FreeCount(isa.ClassGPR)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	i2 := alu(isa.R2, isa.R1)
	out2 := e.Rename(&i2, 2)
	// Flush both (walked youngest first is irrelevant for FlushInstr).
	e.FlushInstr(&out2, 5)
	e.FlushInstr(&out1, 5)
	e.RestoreCheckpoint(cp)
	if got := e.FreeCount(isa.ClassGPR); got != freeBefore {
		t.Errorf("free count %d after flush, want %d", got, freeBefore)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFlushAfterATRReleaseNoDoubleFree(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	cp := e.TakeCheckpoint()
	freeBefore := e.FreeCount(isa.ClassGPR)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	i2 := alu(isa.R2, isa.R1)
	out2 := e.Rename(&i2, 2)
	complete(e, &out2, 2)
	i3 := alu(isa.R1, isa.R3) // redefines r1, claims
	out3 := e.Rename(&i3, 3)
	e.ConsumerIssued(out2.Srcs[0], 4) // releases p1 early
	if e.Stats.Get("release.atr") != 1 {
		t.Fatal("setup: expected ATR release")
	}
	// Entire region flushed (older branch mispredicted).
	e.FlushInstr(&out3, 6)
	e.FlushInstr(&out2, 6)
	e.FlushInstr(&out1, 6)
	e.RestoreCheckpoint(cp)
	if got := e.FreeCount(isa.ClassGPR); got != freeBefore {
		t.Errorf("free count %d, want %d", got, freeBefore)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFlushUndoesRedefineForSurvivingPrev(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeNonSpecER))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	br := branch()
	e.Rename(&br, 2)
	cp := e.TakeCheckpoint()
	i2 := alu(isa.R1, isa.R3) // non-atomic redefiner (branch poisoned)
	out2 := e.Rename(&i2, 3)
	// Redefiner flushed; p1 survives and its redefine state must clear.
	e.FlushInstr(&out2, 5)
	e.RestoreCheckpoint(cp)
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("surviving register freed by flush")
	}
	if e.banks[p1.Class].pregs[p1.Tag].redefPre {
		t.Error("redefPre not cleared on redefiner flush")
	}
	// A new redefiner on the recovered path releases p1 normally.
	i2b := alu(isa.R1, isa.R4)
	out2b := e.Rename(&i2b, 6)
	if out2b.Dsts[0].Prev != p1 {
		t.Fatalf("recovered SRT wrong: prev = %v, want %v", out2b.Dsts[0].Prev, p1)
	}
	e.RedefinerPrecommitted(out2b.Dsts[0], 8)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("ER release after recovery missing")
	}
}

func TestWalkRestoreSkipsInvalidPrev(t *testing.T) {
	// A flushed atomic region's redefiner has an invalidated prev: the
	// backward walk skips it, and the (also flushed) in-region allocator's
	// own restore supersedes, yielding the correct final SRT.
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	p0 := e.Lookup(isa.R1)
	i1 := alu(isa.R1, isa.R2) // r1 -> p1 (prev = poisoned initial: valid)
	out1 := e.Rename(&i1, 1)
	i2 := alu(isa.R1, isa.R3) // r1 -> p2 (claims p1: prev invalid)
	out2 := e.Rename(&i2, 2)
	if !out1.Dsts[0].PrevValid {
		t.Fatal("initial mapping is poisoned; i1 must keep prev valid")
	}
	if out2.Dsts[0].PrevValid {
		t.Fatal("i2 should claim p1")
	}
	// Flush both, walking youngest to oldest.
	e.WalkRestoreDst(out2.Dsts[0]) // skipped: invalid prev
	e.WalkRestoreDst(out1.Dsts[0]) // restores r1 -> p0
	if got := e.Lookup(isa.R1); got.Tag != p0.Tag {
		t.Errorf("walk restore: r1 -> %v, want %v", got, p0)
	}
	e.FlushInstr(&out2, 5)
	e.FlushInstr(&out1, 5)
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWalkRestoreValidChain(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	q0 := e.Lookup(isa.R1)
	j1 := alu(isa.R1, isa.R2)
	o1 := e.Rename(&j1, 1)
	j2 := alu(isa.R1, isa.R3)
	o2 := e.Rename(&j2, 2)
	e.WalkRestoreDst(o2.Dsts[0])
	e.WalkRestoreDst(o1.Dsts[0])
	if e.Lookup(isa.R1).Tag != q0.Tag {
		t.Errorf("walk restore: r1 -> %v, want %v", e.Lookup(isa.R1), q0)
	}
}

func TestCanRenameStallRule(t *testing.T) {
	cfg := testCfg(config.SchemeBaseline)
	e := NewEngine(cfg)
	need := isa.MaxDsts * cfg.RenameWidth
	for e.FreeCount(isa.ClassGPR) >= need {
		if !e.CanRename() {
			t.Fatal("CanRename false while above threshold")
		}
		in := alu(isa.R1, isa.R2)
		e.Rename(&in, 1)
	}
	if e.CanRename() {
		t.Error("CanRename true below the MaxDests*Width threshold")
	}
}

func TestOpenRegionsCounter(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	c := alu(isa.R5, isa.R1)
	outC := e.Rename(&c, 2)
	i3 := alu(isa.R1, isa.R3)
	out3 := e.Rename(&i3, 3)
	if e.OpenRegions() != 0 {
		t.Fatal("region not hazardous before allocator commits")
	}
	// Allocator commits: the claimed region is now open/hazardous.
	e.AllocCommitted(out1.Dsts[0])
	if e.OpenRegions() != 1 {
		t.Fatalf("OpenRegions = %d, want 1", e.OpenRegions())
	}
	e.ConsumerIssued(outC.Srcs[0], 4)
	e.AllocCommitted(outC.Dsts[0])
	// Redefiner commits: region closes.
	e.RedefinerCommitted(out3.Dsts[0], 6)
	if e.OpenRegions() != 0 {
		t.Errorf("OpenRegions = %d after redefiner commit, want 0", e.OpenRegions())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOpenRegionsClaimAfterAllocCommit(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	e.AllocCommitted(out1.Dsts[0]) // allocator commits before redefine
	i3 := alu(isa.R1, isa.R3)
	out3 := e.Rename(&i3, 3)
	if e.OpenRegions() != 1 {
		t.Fatalf("OpenRegions = %d, want 1 (claim after allocator commit)", e.OpenRegions())
	}
	e.RedefinerCommitted(out3.Dsts[0], 5)
	if e.OpenRegions() != 0 {
		t.Errorf("OpenRegions = %d, want 0", e.OpenRegions())
	}
}

func TestLedgerPopulated(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	e.TrackLifetimes()
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 10)
	c := alu(isa.R5, isa.R1)
	outC := e.Rename(&c, 11)
	e.ConsumerIssued(outC.Srcs[0], 15)
	i3 := alu(isa.R1, isa.R3)
	out3 := e.Rename(&i3, 12)
	e.RedefinerPrecommitted(out3.Dsts[0], 20)
	e.RedefinerCommitted(out3.Dsts[0], 25)
	if e.Ledger.Completed() != 1 {
		t.Fatalf("ledger completed = %d", e.Ledger.Completed())
	}
	re, co, cm := e.Ledger.EventGaps()
	if re != 2 || co != 5 || cm != 15 {
		t.Errorf("gaps = %v %v %v, want 2 5 15", re, co, cm)
	}
	_ = out1
}

func TestInfiniteRegsNeverStall(t *testing.T) {
	cfg := testCfg(config.SchemeBaseline).WithPhysRegs(0)
	e := NewEngine(cfg)
	for i := 0; i < cfg.ROBSize; i++ {
		if !e.CanRename() {
			t.Fatalf("stalled at %d allocations with infinite registers", i)
		}
		in := alu(isa.R1, isa.R2)
		in2 := isa.NewInst(isa.OpFPAdd, []isa.Reg{isa.F1}, []isa.Reg{isa.F2})
		e.Rename(&in, 1)
		e.Rename(&in2, 1)
	}
}

func TestFinalizeRecordsLives(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	e.TrackLifetimes()
	i1 := alu(isa.R1, isa.R2)
	e.Rename(&i1, 1)
	if e.trackedLives() == 0 {
		t.Fatal("no lives tracked before Finalize")
	}
	e.Finalize()
	if n := e.trackedLives(); n != 0 {
		t.Errorf("%d lives left after Finalize", n)
	}
}

func TestConsumerFlushedRestoresCount(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeNonSpecER))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	c := alu(isa.R5, isa.R1) // consumer, never issues
	outC := e.Rename(&c, 2)
	re := alu(isa.R1, isa.R3)
	outR := e.Rename(&re, 3)
	e.RedefinerPrecommitted(outR.Dsts[0], 4)
	p1 := out1.Dsts[0].New
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("unissued consumer should block ER")
	}
	// The consumer is squashed before issuing: its count restores and the
	// pending ER release fires.
	e.ConsumerFlushed(outC.Srcs[0], 5)
	if !e.banks[p1.Class].pregs[p1.Tag].free {
		t.Error("count restoration did not unblock the release")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestConsumerFlushedIgnoresStaleAndSaturated(t *testing.T) {
	cfg := testCfg(config.SchemeATR)
	cfg.ConsumerCounterBits = 2 // sentinel 3
	e := NewEngine(cfg)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	p1 := out1.Dsts[0].New
	for i := 0; i < 4; i++ { // saturate
		c := alu(isa.R8, isa.R1)
		e.Rename(&c, 2)
	}
	e.ConsumerFlushed(out1.Dsts[0].New, 3) // wrong use, but must be safe
	if got := e.banks[p1.Class].pregs[p1.Tag].count; got != 3 {
		t.Errorf("saturated count changed to %d", got)
	}
	stale := p1
	stale.Gen++
	e.ConsumerFlushed(stale, 4) // stale generation: ignored
	if got := e.banks[p1.Class].pregs[p1.Tag].count; got != 3 {
		t.Errorf("stale flush changed count to %d", got)
	}
}

func TestReplayDst(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeBaseline))
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	i2 := alu(isa.R1, isa.R3)
	e.Rename(&i2, 2)
	// Rewind the SRT wholesale, then replay i1's mapping forward.
	e.ReplayDst(out1.Dsts[0])
	if e.Lookup(isa.R1) != out1.Dsts[0].New {
		t.Errorf("replay: r1 -> %v, want %v", e.Lookup(isa.R1), out1.Dsts[0].New)
	}
	// Invalid entries are no-ops.
	e.ReplayDst(DstAlloc{Reg: isa.RegInvalid, New: Alloc{Tag: PTagInvalid}})
}

func TestOpenPrecommitRegions(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2)
	out1 := e.Rename(&i1, 1)
	i3 := alu(isa.R1, isa.R3)
	out3 := e.Rename(&i3, 2)
	if e.OpenPrecommitRegions() != 0 {
		t.Fatal("no region should straddle before allocator precommits")
	}
	e.AllocPrecommitted(out1.Dsts[0])
	if e.OpenPrecommitRegions() != 1 {
		t.Fatalf("OpenPrecommitRegions = %d, want 1", e.OpenPrecommitRegions())
	}
	e.RedefinerPrecommitted(out3.Dsts[0], 4)
	if e.OpenPrecommitRegions() != 0 {
		t.Errorf("OpenPrecommitRegions = %d after redefiner precommit, want 0", e.OpenPrecommitRegions())
	}
}

func TestAllocString(t *testing.T) {
	a := Alloc{Class: isa.ClassGPR, Tag: 5, Gen: 2}
	if a.String() != "p5.2" {
		t.Errorf("String = %q", a.String())
	}
	f := Alloc{Class: isa.ClassFPR, Tag: 3, Gen: 1}
	if f.String() != "fp3.1" {
		t.Errorf("String = %q", f.String())
	}
	inv := Alloc{Tag: PTagInvalid}
	if inv.String() != "p-" {
		t.Errorf("String = %q", inv.String())
	}
}

// TestRenameSequenceInvariants drives arbitrary rename/issue/precommit/
// commit interleavings derived from a random byte string through the engine
// and checks the free-list invariants after every event (testing/quick).
func TestRenameSequenceInvariants(t *testing.T) {
	f := func(script []byte, schemeByte uint8) bool {
		scheme := config.Schemes()[int(schemeByte)%len(config.Schemes())]
		e := NewEngine(testCfg(scheme).WithPhysRegs(96))
		poison(e)
		type entry struct {
			out    RenameOut
			issued bool
			pre    bool
		}
		var rob []entry
		head := 0
		cycle := uint64(1)
		for _, op := range script {
			cycle++
			switch op % 4 {
			case 0: // rename an ALU with pseudo-random operands
				if !e.CanRename() {
					break
				}
				dst := isa.Reg(op / 4 % 6)
				s1 := isa.Reg(op / 8 % 6)
				in := alu(dst, s1)
				rob = append(rob, entry{out: e.Rename(&in, cycle)})
			case 1: // issue the oldest unissued entry
				for i := head; i < len(rob); i++ {
					if !rob[i].issued {
						rob[i].issued = true
						o := &rob[i].out
						for j := 0; j < o.NumSrcs; j++ {
							e.ConsumerIssued(o.Srcs[j], cycle)
						}
						for j := 0; j < o.NumDsts; j++ {
							e.ProducerCompleted(o.Dsts[j].New, cycle)
						}
						break
					}
				}
			case 2: // precommit the oldest non-precommitted (if issued)
				if head < len(rob) && rob[head].issued && !rob[head].pre {
					rob[head].pre = true
					for j := 0; j < rob[head].out.NumDsts; j++ {
						e.AllocPrecommitted(rob[head].out.Dsts[j])
						e.RedefinerPrecommitted(rob[head].out.Dsts[j], cycle)
					}
				}
			case 3: // commit the head (if precommitted)
				if head < len(rob) && rob[head].pre {
					for j := 0; j < rob[head].out.NumDsts; j++ {
						e.AllocCommitted(rob[head].out.Dsts[j])
						e.RedefinerCommitted(rob[head].out.Dsts[j], cycle)
					}
					head++
				}
			}
			e.Tick(cycle)
			if err := e.CheckInvariants(); err != nil {
				t.Logf("scheme %v after op %d: %v", scheme, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFigure2UnsafeSpeculativeRelease replays the paper's Figure 2 scenario:
// I1 allocates p1 for r1; I2 consumes it; a branch follows; I5 redefines r1
// on the (to-be-flushed) wrong path. A speculative early-release scheme
// would free p1 here and the post-recovery consumer I6 would read a recycled
// register. ATR must refuse the claim because the branch poisoned p1.
func TestFigure2UnsafeSpeculativeRelease(t *testing.T) {
	e := NewEngine(testCfg(config.SchemeATR))
	poison(e)
	i1 := alu(isa.R1, isa.R2, isa.R3) // I1: alloc p1 for r1
	out1 := e.Rename(&i1, 1)
	complete(e, &out1, 1)
	p1 := out1.Dsts[0].New
	i2 := alu(isa.R2, isa.R1, isa.R3) // I2: consume p1
	out2 := e.Rename(&i2, 2)
	e.ConsumerIssued(out2.Srcs[0], 3)
	cmp := isa.NewInst(isa.OpCmp, []isa.Reg{isa.Flags}, []isa.Reg{isa.R2})
	e.Rename(&cmp, 3) // I3
	br := branch()    // I4: the branch that will mispredict
	e.Rename(&br, 4)
	cp := e.TakeCheckpoint()
	i5 := alu(isa.R1, isa.R3, isa.R4) // I5 (wrong path): redefine r1
	out5 := e.Rename(&i5, 5)
	if !out5.Dsts[0].PrevValid {
		t.Fatal("UNSAFE: the redefinition across a branch was claimed")
	}
	if e.banks[p1.Class].pregs[p1.Tag].free {
		t.Fatal("UNSAFE: p1 released while a misprediction can revive consumers")
	}
	// The branch mispredicts: I5 flushes, and the recovered-path consumer
	// I6 must still find p1 live.
	e.FlushInstr(&out5, 6)
	e.RestoreCheckpoint(cp)
	i6 := alu(isa.R5, isa.R1, isa.R3) // I6: consume r1 after recovery
	out6 := e.Rename(&i6, 7)
	if out6.Srcs[0] != p1 {
		t.Fatalf("recovered consumer reads %v, want %v", out6.Srcs[0], p1)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
