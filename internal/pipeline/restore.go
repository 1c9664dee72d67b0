package pipeline

import (
	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/isa"
	"atr/internal/program"
)

// This file is the pipeline-facing side of sampled simulation: priming a
// freshly built CPU from a live warmer (its emulator plus warm predictor and
// cache state), and reading the cumulative counters a sampling driver needs
// to difference window statistics without calling Finish (which finalizes
// the engine and may only run once).

// InstBytes exposes the I-cache footprint of one micro-instruction so
// external drivers can turn a PC into an instruction-fetch address exactly
// the way fetchStage does.
const InstBytes = instBytes

// RestoreLive primes a freshly constructed CPU (no cycles stepped yet) at
// em's position: it takes em's PC and registers, and copies the warm
// predictor and cache state structure to structure. The CPU then simulates
// forward as if it had been flushed and redirected there: the initial
// speculative rename table still maps every architectural register to its
// initial physical register, so the register file is written through
// Engine.Lookup. The caller owns c.Data: RestoreLive leaves it untouched so
// a sampling driver can install a copy-on-write overlay of em's memory.
// Calling RestoreLive on a CPU that has already stepped is a programmer
// error and panics.
func (c *CPU) RestoreLive(em *program.Emulator, pred *bpred.Predictor, hier *cache.Hierarchy) {
	if c.cycle != 0 || c.committed != 0 || c.seq != 0 {
		panic("pipeline: RestoreLive on a CPU that has already run")
	}
	c.fetchPC = em.PC
	c.archPC = em.PC
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		a := c.Engine.Lookup(r)
		c.vals[a.Class][a.Tag] = em.Regs[r]
		c.ready[a.Class][a.Tag] = true
	}
	c.Pred.CopyFrom(pred)
	c.Mem.CopyFrom(hier)
}

// WindowStats is a cumulative counter snapshot cheap enough to take at
// window boundaries; a sampling driver differences two snapshots to get the
// exact statistics of the instructions committed between them.
type WindowStats struct {
	Cycles       uint64
	Committed    uint64
	Mispredicts  uint64
	Flushes      uint64
	Exceptions   uint64
	Interrupts   uint64
	RenameStalls uint64
	OccupancySum uint64
	CondLookups  uint64
	CondWrong    uint64
	IndLookups   uint64
	IndWrong     uint64
	L1DHits      uint64
	L1DMisses    uint64
}

// WindowStats snapshots the CPU's cumulative counters without finalizing
// anything.
func (c *CPU) WindowStats() WindowStats {
	w := WindowStats{
		Cycles:       c.cycle,
		Committed:    c.committed,
		Mispredicts:  c.mispredicts,
		Flushes:      c.flushes,
		Exceptions:   c.exceptions,
		Interrupts:   c.interrupts,
		RenameStalls: c.renameStall,
		OccupancySum: c.occupancySum,
		L1DHits:      c.Mem.L1D.Hits,
		L1DMisses:    c.Mem.L1D.Misses,
	}
	w.CondLookups, w.CondWrong = c.Pred.CondCounts()
	w.IndLookups, w.IndWrong = c.Pred.IndCounts()
	return w
}
