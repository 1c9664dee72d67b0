// Package program defines the static program image executed by the
// simulator, the functional semantics of every micro-op, and an in-order
// architectural emulator that serves as the oracle against which the
// out-of-order core's committed stream is validated.
//
// A Program is a flat array of micro-instructions; the PC is the array
// index. Control flow is resolved from real register values at execute
// time — conditional branches test flag bits, indirect jumps select from a
// static target table, returns jump to a link value produced by a call — so
// the out-of-order core can fetch down mispredicted paths and discover the
// truth the same way real hardware does.
package program

import (
	"fmt"
	"math/bits"

	"atr/internal/isa"
)

// Program is an immutable static code image.
type Program struct {
	Code []isa.Inst
	// MemSeed parameterizes the default contents of uninitialized memory.
	MemSeed uint64
	// RegSeed parameterizes the initial architectural register values.
	RegSeed uint64
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// ValidPC reports whether pc indexes a real instruction. The PC one past the
// end is the halt address (valid as a stopping point, not fetchable).
func (p *Program) ValidPC(pc uint64) bool { return pc < uint64(len(p.Code)) }

// HaltPC is the address reached when the program falls off the end.
func (p *Program) HaltPC() uint64 { return uint64(len(p.Code)) }

// At returns the instruction at pc. It panics on an invalid pc; callers must
// gate on ValidPC (the frontend treats invalid PCs as fetch stalls).
func (p *Program) At(pc uint64) *isa.Inst { return &p.Code[pc] }

// InitialRegs returns the seeded initial architectural register file.
func (p *Program) InitialRegs() [isa.NumRegs]uint64 {
	var regs [isa.NumRegs]uint64
	for i := range regs {
		regs[i] = Mix(p.RegSeed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return regs
}

// Mix is the 64-bit finalizer used wherever the semantics need a
// pseudo-random but deterministic value (splitmix64 finalizer).
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Flag bits produced by compares (and fused compare-branches).
const (
	FlagZero  = 1 << 0 // operands equal
	FlagCarry = 1 << 1 // a < b (unsigned)
	FlagSign  = 1 << 2 // high bit of a-b
	FlagOdd   = 1 << 3 // parity of a-b
)

// cmpFlags computes the flag word for a compare of a against b.
func cmpFlags(a, b uint64) uint64 {
	d := a - b
	var f uint64
	if d == 0 {
		f |= FlagZero
	}
	if a < b {
		f |= FlagCarry
	}
	if d>>63 != 0 {
		f |= FlagSign
	}
	if bits.OnesCount64(d)%2 == 1 {
		f |= FlagOdd
	}
	return f
}

// Branch predicates, selected by the low bits of a branch's Imm.
const (
	PredZero    = 0 // taken iff FlagZero set (je)
	PredNotZero = 1 // taken iff FlagZero clear (jne)
	PredCarry   = 2 // taken iff FlagCarry set (jb)
	PredNoCarry = 3 // taken iff FlagCarry clear (jae)
	PredSign    = 4 // taken iff FlagSign set (js)
	PredNotSign = 5 // taken iff FlagSign clear (jns)
	PredOdd     = 6 // taken iff FlagOdd set
	PredEven    = 7 // taken iff FlagOdd clear
	numPreds    = 8
)

// predTaken evaluates predicate p against a flag word.
func predTaken(p int64, flags uint64) bool {
	bit := uint64(1) << uint(p>>1)
	set := flags&bit != 0
	if p&1 == 0 {
		return set
	}
	return !set
}

// EffAddr computes the effective address of a memory op: base (Target) plus
// (src0+Imm) mod Span, aligned to 8 bytes.
func EffAddr(in *isa.Inst, src0 uint64) uint64 {
	off := src0 + uint64(in.Imm)
	if in.Span > 8 {
		off %= in.Span
	} else {
		off = 0
	}
	return in.Target + (off &^ 7)
}

// Outcome is the result of functionally executing one instruction.
type Outcome struct {
	DstVals  [isa.MaxDsts]uint64
	EA       uint64 // effective address (memory ops)
	StoreVal uint64 // value written (stores)
	Taken    bool   // conditional branch direction
	NextPC   uint64 // architectural next PC
}

// Eval executes in at pc and writes the outcome to *out, overwriting it
// entirely. It is the single definition of the ISA's semantics, shared by
// the in-order emulator and the out-of-order execute stage. s0 and s1 are
// the values of in.Srcs[0] and in.Srcs[1]; the caller passes 0 for an
// invalid slot, and Eval reads no other source. loaded is the word a load
// reads at EffAddr(in, s0) (ignored by every other op): the caller reads
// memory, or forwards from a store, itself.
func Eval(in *isa.Inst, pc, s0, s1, loaded uint64, out *Outcome) {
	*out = Outcome{NextPC: pc + 1}
	switch in.Op {
	case isa.OpNop:
	case isa.OpALU:
		out.DstVals[0] = s0 + s1 + uint64(in.Imm)
		if in.Dsts[1].Valid() {
			// x86-style dual destination: the ALU also produces a
			// flag word derived from its result.
			out.DstVals[1] = cmpFlags(out.DstVals[0], 0)
		}
	case isa.OpLEA:
		out.DstVals[0] = s0 + s1<<3 + uint64(in.Imm)
	case isa.OpMove, isa.OpFPMove:
		out.DstVals[0] = s0
	case isa.OpMul:
		out.DstVals[0] = Mix(s0 ^ bits.RotateLeft64(s1, 17) ^ uint64(in.Imm))
	case isa.OpDiv:
		out.DstVals[0] = s0/(s1|1) + uint64(in.Imm)
	case isa.OpCmp:
		out.DstVals[0] = cmpFlags(s0, s1+uint64(in.Imm))
	case isa.OpLoad:
		out.EA = EffAddr(in, s0)
		out.DstVals[0] = loaded
	case isa.OpStore:
		out.EA = EffAddr(in, s0)
		out.StoreVal = s1
	case isa.OpBranch:
		flags := s0
		if in.Dsts[0].Valid() {
			// Fused compare-and-branch (TEST+JNZ style): computes
			// flags from its operands and branches on them.
			flags = cmpFlags(s0, s1+uint64(in.Imm>>3))
			out.DstVals[0] = flags
		}
		out.Taken = predTaken(in.Imm&7, flags)
		if out.Taken {
			out.NextPC = in.Target
		}
	case isa.OpJump:
		out.Taken = true
		out.NextPC = in.Target
	case isa.OpCall:
		out.Taken = true
		out.DstVals[0] = pc + 1 // link value
		out.NextPC = in.Target
	case isa.OpJumpInd:
		out.Taken = true
		out.NextPC = indirectTarget(in, s0)
	case isa.OpCallInd:
		out.Taken = true
		out.DstVals[0] = pc + 1
		out.NextPC = indirectTarget(in, s0)
	case isa.OpRet:
		out.Taken = true
		out.NextPC = s0 // link value is the return address
	case isa.OpFPAdd:
		out.DstVals[0] = s0 + s1 + uint64(in.Imm)
	case isa.OpFPMul:
		out.DstVals[0] = Mix(s0 ^ s1 ^ uint64(in.Imm))
	case isa.OpFPDiv:
		out.DstVals[0] = bits.RotateLeft64(s0, 9) ^ s1 + uint64(in.Imm)
	case isa.OpCvt:
		out.DstVals[0] = bits.RotateLeft64(s0, 32) ^ uint64(in.Imm)
	default:
		panic(fmt.Sprintf("program: Eval of unknown op %v", in.Op))
	}
}

func indirectTarget(in *isa.Inst, sel uint64) uint64 {
	if len(in.Targets) == 0 {
		return in.Target
	}
	return in.Targets[sel%uint64(len(in.Targets))]
}

// Memory is a sparse 64-bit-word memory whose uninitialized contents are a
// deterministic function of the address and a seed, so that two Memory
// instances built with the same seed observe identical values.
//
// The written-word image is an open-addressed hash table with linear
// probing rather than a Go map: Read/Write sit on the emulator's
// per-instruction path (and the pipeline's execute stage), where the flat
// table is ~2x faster. A sampled detail window never copies the table: it
// reads through a copy-on-write overlay (NewOverlay). Written addresses are
// 8-aligned, so keys are stored with bit 0 set and 0 marks an empty slot.
type Memory struct {
	seed uint64
	keys []uint64 // addr|1, 0 = empty
	vals []uint64
	n    int // occupied slots

	// base, when non-nil, makes this a copy-on-write overlay: reads that
	// miss the local table fall through to base, writes stay local. A
	// sampled-simulation driver hands each detail window an overlay over
	// the warmer's memory so per-window setup is O(1) instead of
	// O(working set). The base must not be mutated while the overlay is
	// live.
	base *Memory
}

// memoryMinSlots is the initial table size on first write (power of two).
const memoryMinSlots = 1024

// memSlot maps an (aligned) address to its preferred table slot: the 64-byte
// line is hashed and the word's offset within the line is kept, so spatially
// adjacent words occupy adjacent slots. Program memory access has strong
// spatial locality, and preserving it in the table layout is worth several
// DRAM misses per instruction once the working set outgrows the LLC.
func memSlot(addr uint64) uint64 {
	return Mix(addr>>6)*8 + (addr>>3)&7
}

// NewMemory creates a memory with the given content seed.
func NewMemory(seed uint64) *Memory {
	return &Memory{seed: seed}
}

// Read returns the 8-byte word at addr (aligned down).
func (m *Memory) Read(addr uint64) uint64 {
	addr &^= 7
	if m.n > 0 {
		mask := uint64(len(m.keys) - 1)
		key := addr | 1
		for i := memSlot(addr) & mask; ; i = (i + 1) & mask {
			k := m.keys[i]
			if k == key {
				return m.vals[i]
			}
			if k == 0 {
				break
			}
		}
	}
	if m.base != nil {
		return m.base.Read(addr)
	}
	return Mix(addr ^ m.seed)
}

// Write stores an 8-byte word at addr (aligned down).
func (m *Memory) Write(addr, val uint64) {
	addr &^= 7
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	key := addr | 1
	for i := memSlot(addr) & mask; ; i = (i + 1) & mask {
		k := m.keys[i]
		if k == key {
			m.vals[i] = val
			return
		}
		if k == 0 {
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		}
	}
}

// grow doubles the table (or allocates the initial one) and rehashes.
func (m *Memory) grow() {
	newLen := memoryMinSlots
	if len(m.keys) > 0 {
		newLen = 2 * len(m.keys)
	}
	keys, vals := m.keys, m.vals
	m.keys = make([]uint64, newLen)
	m.vals = make([]uint64, newLen)
	mask := uint64(newLen - 1)
	for i, k := range keys {
		if k == 0 {
			continue
		}
		for j := memSlot(k&^7) & mask; ; j = (j + 1) & mask {
			if m.keys[j] == 0 {
				m.keys[j] = k
				m.vals[j] = vals[i]
				break
			}
		}
	}
}

// Written returns the number of distinct words ever written.
func (m *Memory) Written() int { return m.n }

// NewOverlay returns a copy-on-write view of base: reads see base's current
// contents, writes land only in the overlay. The base must not be written
// while the overlay is in use.
func NewOverlay(base *Memory) *Memory {
	return &Memory{seed: base.seed, base: base}
}

// Record is one architecturally committed instruction, used to compare the
// out-of-order core's committed stream against the in-order emulator: the
// op at PC and the Outcome Eval gave it.
type Record struct {
	PC uint64
	Op isa.Op
	Outcome
}

// Emulator executes a Program in order, one instruction per Step. It is the
// architectural oracle.
type Emulator struct {
	Prog *Program
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   uint64
	Done bool

	steps uint64
}

// NewEmulator creates an emulator positioned at PC 0 with seeded state.
func NewEmulator(p *Program) *Emulator {
	return &Emulator{
		Prog: p,
		Regs: p.InitialRegs(),
		Mem:  NewMemory(p.MemSeed),
	}
}

// Steps returns the number of instructions executed so far.
func (e *Emulator) Steps() uint64 { return e.steps }

// Step executes one instruction and returns its record. ok is false once the
// program has halted (PC ran past the end).
func (e *Emulator) Step() (rec Record, ok bool) {
	ok = e.StepInto(&rec)
	return rec, ok
}

// StepInto executes one instruction, writing its record into *rec — the
// copy-free core of Step for fast-forward loops that execute millions of
// instructions and only inspect a field or two per record. When it returns
// false (program halted) *rec is left zeroed.
func (e *Emulator) StepInto(rec *Record) bool {
	if e.Done || !e.Prog.ValidPC(e.PC) {
		e.Done = true
		*rec = Record{}
		return false
	}
	in := e.Prog.At(e.PC)
	var s0, s1, loaded uint64
	if r := in.Srcs[0]; r.Valid() {
		s0 = e.Regs[r]
	}
	if r := in.Srcs[1]; r.Valid() {
		s1 = e.Regs[r]
	}
	if in.Op == isa.OpLoad {
		loaded = e.Mem.Read(EffAddr(in, s0))
	}
	rec.PC, rec.Op = e.PC, in.Op
	Eval(in, e.PC, s0, s1, loaded, &rec.Outcome)
	for i, r := range in.Dsts {
		if r.Valid() {
			e.Regs[r] = rec.DstVals[i]
		}
	}
	if in.Op == isa.OpStore {
		e.Mem.Write(rec.EA, rec.StoreVal)
	}
	e.PC = rec.NextPC
	e.steps++
	if !e.Prog.ValidPC(e.PC) {
		e.Done = true
	}
	return true
}

// Run executes up to n instructions and returns their records.
func (e *Emulator) Run(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec, ok := e.Step()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs
}
