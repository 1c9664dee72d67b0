package core

import (
	"fmt"

	"atr/internal/config"
	"atr/internal/isa"
	"atr/internal/obs"
	"atr/internal/stats"
)

// preg is the per-physical-register state. The consumer counter, the two
// region-poisoning flags, and the claimed/redefined bits are the hardware
// state the paper adds; gen and the lifetime bookkeeping are simulation-only.
type preg struct {
	gen  uint32
	free bool

	// refs is the sharing reference count (move elimination, §6): each
	// architectural mapping of this register holds one reference; every
	// release decrements, and the register returns to the free list at
	// zero. Without move elimination it is always 1 while allocated.
	refs int

	// count is the saturating consumer counter (§4.2.2). Once it reaches
	// the sentinel (all-ones) it is sticky: the register is
	// no-early-release regardless of the flags below.
	count int

	// sawBranch/sawExcept record that a branch-class or fault-class
	// flusher was renamed while this register was live in the SRT (the
	// bulk no-early-release marking). A register is atomic-eligible only
	// if neither is set when it is redefined.
	sawBranch bool
	sawExcept bool

	// claimed: the redefining instruction invalidated its previous-ptag
	// field, transferring release ownership to ATR (§4.2.4). At most one
	// mapping of a (possibly shared) register holds a claim at a time;
	// claimArch names it.
	claimed   bool
	claimArch isa.Reg
	// redefined: the (possibly pipelined) redefine signal has arrived.
	redefined bool
	// redefPre: the redefining instruction has precommitted (nonspec-ER).
	// Like claims, early-release arbitration is serialized per register;
	// erArch names the mapping whose redefiner precommitted.
	redefPre bool
	erArch   isa.Reg
	// allocCommitted: the instruction that allocated this register has
	// committed (interrupt region counter bookkeeping).
	allocCommitted bool
	// allocPrecommitted: the allocating instruction has precommitted and
	// can therefore never be flushed again.
	allocPrecommitted bool
	// writePending: the producing instruction has not yet written the
	// register. A register with a write in flight must not be freed —
	// the late write would corrupt a re-allocation. (This matters for
	// zero-consumer registers, whose counter is 0 from the start.)
	writePending bool

	// region is the classification assigned when this allocation was
	// redefined (observability only; release events report it).
	region stats.RegionKind
}

// bank is one register class's renaming state: SRT, physical registers, and
// free list, plus the class's dense allocation-keyed side tables (lifetime
// records, open ATR claims, early-release marks — see dense.go). lives is
// allocated only when the engine tracks lifetimes.
type bank struct {
	class isa.RegClass
	nArch int
	pregs []preg
	free  []PTag
	srt   []PTag

	lives  lifeTab
	claims claimTab
	early  markTab
}

func (b *bank) alloc() (PTag, uint32) {
	n := len(b.free)
	if n == 0 {
		panic("core: free list exhausted; caller must gate on CanRename")
	}
	t := b.free[n-1]
	b.free = b.free[:n-1]
	p := &b.pregs[t]
	p.gen++
	p.free = false
	p.refs = 1
	p.count = 0
	p.sawBranch = false
	p.sawExcept = false
	p.claimed = false
	p.redefined = false
	p.redefPre = false
	p.allocCommitted = false
	p.allocPrecommitted = false
	p.writePending = true
	p.region = stats.RegionNone
	return t, p.gen
}

// Checkpoint is a snapshot of both SRTs, taken at branches for misprediction
// recovery.
type Checkpoint struct {
	srt [isa.NumClasses][]PTag
}

type delayedRedefine struct {
	a   Alloc
	due uint64
}

// relKind names the mechanism that freed a register. It indexes the
// engine's pre-resolved counter handles and the tracer's scheme strings, so
// the release hot path never builds or hashes a counter name.
type relKind uint8

const (
	relATR relKind = iota
	relER
	relCommit
	relFlush
	numRelKinds
)

// relCounterNames are the release counters in relKind order; relSchemeNames
// are the corresponding tracer scheme labels (the old "release." prefix
// stripped once, here, instead of per event).
var (
	relCounterNames = [numRelKinds]string{"release.atr", "release.er", "release.commit", "release.flush"}
	relSchemeNames  = [numRelKinds]string{"atr", "er", "commit", "flush"}
)

// claimState tracks one open atomic region for the interrupt-flush counters
// (§4.1 option b). The paper's counter tracks commit-boundary straddles; the
// precommit-boundary variant (allocPre/redefPre) additionally guards the
// flush-only-unprecommitted-suffix interrupt policy that the combined scheme
// requires (non-speculative early release assumes precommitted instructions
// never flush).
type claimState struct {
	allocCommitted bool
	allocPre       bool
	redefPre       bool
}

// Engine is the renaming and release unit. It owns the SRTs, free lists,
// consumer counters, region detection, and all four release schemes.
type Engine struct {
	cfg   config.Config
	banks [isa.NumClasses]bank

	// Ledger receives every finished register lifetime (the Fig 4/6/12/14
	// analysis). It is nil, and the engine keeps no lifetime records at
	// all, unless TrackLifetimes was called: no Result depends on it, so
	// the hot path pays only this pointer compare when it is off.
	Ledger *stats.LifetimeLedger
	Stats  *stats.Counters

	delayQ []delayedRedefine

	// trace, when non-nil, receives one ReleaseEvent per register release.
	// The hot path pays only this pointer compare when tracing is off.
	trace *obs.Tracer

	// openRegions counts claimed regions whose allocator has committed but
	// whose redefiner has not (the paper's §4.1 counter).
	openRegions int
	// openPre counts claimed regions straddling the precommit pointer:
	// allocator precommitted, redefiner not. Flushing the
	// non-precommitted ROB suffix is unsafe while it is non-zero.
	openPre int

	satCount int // consumer counter sentinel; <0 means unbounded

	// Counter handles, resolved once at construction so the rename and
	// release hot paths increment by slice index instead of map lookup.
	hRenameAlloc stats.Handle
	hMoveElim    stats.Handle
	hClaims      stats.Handle
	hBulkMarks   stats.Handle
	hRelease     [numRelKinds]stats.Handle

	// cpPool recycles SRT checkpoints, the engine's only remaining
	// steady-state heap objects (lifetime records, when tracked, live
	// inside the banks' dense lifeTab arenas).
	cpPool []*Checkpoint
}

// NewEngine builds the renaming state for cfg. The initial architectural
// mappings are pre-allocated (one physical register per architectural
// register in each class). Lifetime accounting is off; see TrackLifetimes.
func NewEngine(cfg config.Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		Stats:    stats.NewCounters(),
		satCount: cfg.MaxConsumerCount(),
	}
	e.hRenameAlloc = e.Stats.Handle("rename.alloc")
	e.hMoveElim = e.Stats.Handle("rename.moveelim")
	e.hClaims = e.Stats.Handle("atr.claims")
	e.hBulkMarks = e.Stats.Handle("atr.bulkmarks")
	for k := relKind(0); k < numRelKinds; k++ {
		e.hRelease[k] = e.Stats.Handle(relCounterNames[k])
	}
	size := cfg.PhysRegs
	if size == 0 {
		// "Infinite" registers: enough that rename never stalls.
		size = isa.NumGPR + cfg.ROBSize*isa.MaxDsts + 64
	}
	for c := 0; c < int(isa.NumClasses); c++ {
		nArch := isa.NumGPR
		if isa.RegClass(c) == isa.ClassFPR {
			nArch = isa.NumFPR
		}
		b := &e.banks[c]
		b.class = isa.RegClass(c)
		b.nArch = nArch
		b.pregs = make([]preg, size)
		b.srt = make([]PTag, nArch)
		b.free = make([]PTag, 0, size)
		b.claims = newClaimTab(size)
		b.early = newMarkTab(size)
		for t := size - 1; t >= nArch; t-- {
			b.pregs[t].free = true
			b.free = append(b.free, PTag(t))
		}
		for a := 0; a < nArch; a++ {
			b.srt[a] = PTag(a)
			b.pregs[a].gen = 1
			b.pregs[a].refs = 1
			// The initial mappings' "allocator" is pre-existing
			// architectural state: committed and written by
			// definition.
			b.pregs[a].allocCommitted = true
			b.pregs[a].writePending = false
		}
	}
	return e
}

// TrackLifetimes turns on register-lifetime accounting into a fresh Ledger,
// starting with one record per initial architectural mapping. Call it
// before the first Rename; records of allocations made earlier would be
// missing. A second call is a no-op. Lifetimes never feed back into
// renaming or release, so a run's Result is the same either way.
func (e *Engine) TrackLifetimes() {
	if e.Ledger != nil {
		return
	}
	e.Ledger = stats.NewLifetimeLedger()
	for c := range e.banks {
		b := &e.banks[c]
		b.lives = newLifeTab(len(b.pregs))
		for a := 0; a < b.nArch; a++ {
			b.lives.put(PTag(a), 1, stats.RegLifetime{})
		}
	}
}

// SetTracer attaches (or with nil detaches) a release-event tracer.
func (e *Engine) SetTracer(t *obs.Tracer) { e.trace = t }

// PhysRegsPerClass returns the size of each physical register file.
func (e *Engine) PhysRegsPerClass() int { return len(e.banks[0].pregs) }

// FreeCount returns the current free-list occupancy of the given class.
func (e *Engine) FreeCount(c isa.RegClass) int { return len(e.banks[c].free) }

// CanRename reports whether a full rename group may proceed: the paper's
// stall rule requires MaxDests × RenameWidth free entries in each class.
func (e *Engine) CanRename() bool {
	need := isa.MaxDsts * e.cfg.RenameWidth
	return len(e.banks[isa.ClassGPR].free) >= need && len(e.banks[isa.ClassFPR].free) >= need
}

// Lookup returns the current mapping of arch register r.
func (e *Engine) Lookup(r isa.Reg) Alloc {
	b := &e.banks[r.Class()]
	t := b.srt[r.ClassIndex()]
	return Alloc{Class: b.class, Tag: t, Gen: b.pregs[t].gen}
}

// life returns a's lifetime record, or nil (always nil when lifetimes are
// not tracked). The pointer is valid only until the next lifeTab insert
// (the arena may grow); callers use it locally.
func (e *Engine) life(a Alloc) *stats.RegLifetime {
	if e.Ledger == nil {
		return nil
	}
	return e.banks[a.Class].lives.get(a.Tag, a.Gen)
}

// trackedLives returns the number of in-flight lifetime records (tests).
func (e *Engine) trackedLives() int {
	n := 0
	for c := range e.banks {
		n += e.banks[c].lives.n
	}
	return n
}

// Rename processes one instruction through the rename stage at the given
// cycle: source lookup and consumer counting, bulk no-early-release marking
// for flushers, destination allocation, and the ATR claim decision for each
// redefined previous mapping. The caller must have checked CanRename for the
// group.
func (e *Engine) Rename(in *isa.Inst, cycle uint64) RenameOut {
	var out RenameOut
	e.RenameInto(in, cycle, &out)
	return out
}

// RenameInto is Rename writing into a caller-owned RenameOut (the pipeline
// renames straight into the uop's embedded struct, skipping a sizeable copy
// per instruction). *out is overwritten entirely.
func (e *Engine) RenameInto(in *isa.Inst, cycle uint64, out *RenameOut) {
	*out = RenameOut{}

	// 1. Source operands: look up and register consumers.
	for i, r := range in.Srcs {
		if !r.Valid() {
			continue
		}
		a := e.Lookup(r)
		out.Srcs[i] = a
		out.NumSrcs++
		e.registerConsumer(a, cycle)
	}

	// 2. Bulk no-early-release marking (§4.2.2): a flusher poisons every
	// ptag currently referenced by the SRT. This happens before the
	// flusher's own destinations rename, so a faulting redefiner marks
	// the mapping it is about to replace (making it ineligible), while
	// the flusher's own new destination starts a fresh region.
	if in.Op.IsFlusher() {
		e.bulkMark(in.Op)
	}

	// 3. Destinations: allocate (or alias, for eliminated moves), decide
	// claim, update SRT.
	elim := e.cfg.MoveElimination && (in.Op == isa.OpMove || in.Op == isa.OpFPMove) &&
		in.Dsts[0].Valid() && in.Srcs[0].Valid() &&
		in.Dsts[0].Class() == in.Srcs[0].Class()
	for i, r := range in.Dsts {
		if !r.Valid() {
			out.Dsts[i] = DstAlloc{Reg: isa.RegInvalid, New: Alloc{Tag: PTagInvalid}, Prev: Alloc{Tag: PTagInvalid}}
			continue
		}
		if elim && i == 0 {
			out.Dsts[i] = e.renameMove(r, out.Srcs[0], cycle)
		} else {
			out.Dsts[i] = e.renameDst(r, cycle)
		}
		out.NumDsts++
	}

	// 4. A branch-class flusher (mispredicted branches commit while their
	// younger consumers flush) must also poison its own destination: a
	// fused compare-and-branch's flag output survives a misprediction,
	// so consumers appearing on the corrected path may still read it.
	if in.Op.IsBranchClassFlusher() {
		for i := 0; i < out.NumDsts; i++ {
			d := out.Dsts[i].New
			if d.Valid() {
				e.banks[d.Class].pregs[d.Tag].sawBranch = true
			}
		}
	}
}

func (e *Engine) renameDst(r isa.Reg, cycle uint64) DstAlloc {
	b := &e.banks[r.Class()]
	idx := r.ClassIndex()
	prevTag := b.srt[idx]
	prev := Alloc{Class: b.class, Tag: prevTag, Gen: b.pregs[prevTag].gen}

	newTag, gen := b.alloc()
	b.srt[idx] = newTag
	na := Alloc{Class: b.class, Tag: newTag, Gen: gen}
	if e.Ledger != nil {
		b.lives.put(newTag, gen, stats.RegLifetime{Renamed: cycle})
	}
	e.Stats.Add(e.hRenameAlloc, 1)

	d := DstAlloc{Reg: r, New: na, Prev: prev, PrevValid: true}

	// Redefinition of prev: record the event and classify the region.
	pp := &b.pregs[prevTag]
	pp.region = classify(pp.sawBranch, pp.sawExcept)
	if life := e.life(prev); life != nil {
		life.Redefined = cycle
		life.Region = pp.region
	}

	e.maybeClaim(&d, prev, pp, cycle)
	return d
}

// maybeClaim applies the ATR claim decision (§4.2.4) to a redefinition of
// prev: eligible iff the region is atomic, the consumer counter did not
// saturate, and no other mapping of a shared register holds a claim already
// (move elimination shares the per-register claim state, so claims are
// serialized per register).
func (e *Engine) maybeClaim(d *DstAlloc, prev Alloc, pp *preg, cycle uint64) {
	if e.cfg.Scheme != config.SchemeATR && e.cfg.Scheme != config.SchemeCombined {
		return
	}
	saturated := e.satCount >= 0 && pp.count >= e.satCount
	if pp.sawBranch || pp.sawExcept || saturated || pp.free || pp.claimed {
		return
	}
	d.PrevValid = false
	pp.claimed = true
	pp.claimArch = d.Reg
	cs := claimState{allocCommitted: pp.allocCommitted, allocPre: pp.allocPrecommitted}
	if cs.allocCommitted {
		e.openRegions++
	}
	if cs.allocPre {
		e.openPre++
	}
	e.banks[prev.Class].claims.set(prev.Tag, prev.Gen, d.Reg, cs)
	e.Stats.Add(e.hClaims, 1)
	if e.cfg.RedefineDelay == 0 {
		pp.redefined = true
		e.tryATRRelease(prev, cycle)
	} else {
		e.delayQ = append(e.delayQ, delayedRedefine{a: prev, due: cycle + uint64(e.cfg.RedefineDelay)})
	}
}

// renameMove implements move elimination: the destination maps to the
// source's physical register, which gains a reference instead of a fresh
// allocation. The previous mapping of the destination is released exactly as
// for a normal rename (including an ATR claim when its region is atomic).
func (e *Engine) renameMove(r isa.Reg, src Alloc, cycle uint64) DstAlloc {
	b := &e.banks[r.Class()]
	idx := r.ClassIndex()
	prevTag := b.srt[idx]
	prev := Alloc{Class: b.class, Tag: prevTag, Gen: b.pregs[prevTag].gen}

	sp := &b.pregs[src.Tag]
	sp.refs++
	b.srt[idx] = src.Tag
	e.Stats.Add(e.hMoveElim, 1)

	d := DstAlloc{Reg: r, New: src, Prev: prev, PrevValid: true, Eliminated: true}

	pp := &b.pregs[prevTag]
	pp.region = classify(pp.sawBranch, pp.sawExcept)
	if life := e.life(prev); life != nil {
		life.Redefined = cycle
		life.Region = pp.region
	}
	e.maybeClaim(&d, prev, pp, cycle)
	return d
}

func classify(sawBranch, sawExcept bool) stats.RegionKind {
	switch {
	case !sawBranch && !sawExcept:
		return stats.RegionAtomic
	case !sawBranch:
		return stats.RegionNonBranch
	case !sawExcept:
		return stats.RegionNonExcept
	default:
		return stats.RegionNone
	}
}

// bulkMark poisons every ptag currently mapped by either SRT, per flusher
// class. This is the operation whose gate-level cost §4.4 analyzes.
func (e *Engine) bulkMark(op isa.Op) {
	branch := op.IsBranchClassFlusher()
	except := op.CanFault()
	for c := range e.banks {
		b := &e.banks[c]
		for _, t := range b.srt {
			p := &b.pregs[t]
			if branch {
				p.sawBranch = true
			}
			if except {
				p.sawExcept = true
			}
		}
	}
	e.Stats.Add(e.hBulkMarks, 1)
}

// registerConsumer increments the consumer counter of a at rename time,
// saturating into the sticky no-early-release sentinel.
func (e *Engine) registerConsumer(a Alloc, cycle uint64) {
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen == a.Gen && !p.free {
		if e.satCount < 0 || p.count < e.satCount {
			p.count++
		}
	}
	if life := e.life(a); life != nil {
		life.Consumers++
	}
}

// ConsumerIssued notifies that a consumer of a read its source operand (the
// issue-time counter decrement, §4.2.3). Stale references (the register was
// already released and re-allocated) are ignored via the generation check.
func (e *Engine) ConsumerIssued(a Alloc, cycle uint64) {
	if life := e.life(a); life != nil && cycle > life.LastConsumed {
		life.LastConsumed = cycle
	}
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen != a.Gen {
		return
	}
	if e.satCount >= 0 && p.count >= e.satCount {
		return // sticky no-early-release
	}
	if p.count > 0 {
		p.count--
	}
	if p.count == 0 {
		e.tryATRRelease(a, cycle)
		e.tryERRelease(a, cycle)
	}
}

// ConsumerFlushed notifies that a renamed-but-unissued consumer of a was
// squashed, undoing its rename-time counter increment. This models the
// counter-restoration hardware of the non-speculative early release prior
// work (Moudgill's per-branch FIFOs / Monreal's last-use table snapshots);
// ATR itself does not require it — an atomic region's consumers flush
// together with the region — but exact counters keep ER and the ATR claim
// eligibility check precise.
func (e *Engine) ConsumerFlushed(a Alloc, cycle uint64) {
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen != a.Gen || p.free {
		return
	}
	if e.satCount >= 0 && p.count >= e.satCount {
		return // sticky no-early-release
	}
	if p.count > 0 {
		p.count--
	}
	if p.count == 0 {
		e.tryATRRelease(a, cycle)
		e.tryERRelease(a, cycle)
	}
}

// ProducerCompleted notifies that the instruction that allocated a has
// written its result to the register file. Registers are never freed with a
// write in flight, so this can be the last release condition to clear.
func (e *Engine) ProducerCompleted(a Alloc, cycle uint64) {
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen != a.Gen || p.free {
		return
	}
	p.writePending = false
	e.tryATRRelease(a, cycle)
	e.tryERRelease(a, cycle)
}

// Tick advances the pipelined redefine-signal queue (Fig 13): claims made
// RedefineDelay cycles ago become visible now. It reports whether any
// signal fell due this cycle.
func (e *Engine) Tick(cycle uint64) bool {
	n := 0
	for _, d := range e.delayQ {
		if d.due > cycle {
			e.delayQ[n] = d
			n++
			continue
		}
		b := &e.banks[d.a.Class]
		p := &b.pregs[d.a.Tag]
		if p.gen == d.a.Gen && !p.free && p.claimed {
			p.redefined = true
			e.tryATRRelease(d.a, cycle)
		}
	}
	fired := n < len(e.delayQ)
	e.delayQ = e.delayQ[:n]
	return fired
}

// NextRedefineDue returns the earliest cycle at which Tick has a delayed
// redefine signal to deliver, and false when none is queued.
func (e *Engine) NextRedefineDue() (uint64, bool) {
	if len(e.delayQ) == 0 {
		return 0, false
	}
	due := e.delayQ[0].due
	for _, d := range e.delayQ[1:] {
		due = min(due, d.due)
	}
	return due, true
}

// tryATRRelease frees a claimed register once it is redefined and fully
// consumed.
func (e *Engine) tryATRRelease(a Alloc, cycle uint64) {
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.free || p.gen != a.Gen || !p.claimed || !p.redefined || p.count != 0 || p.writePending {
		return
	}
	b.early.add(a.Tag, a.Gen, p.claimArch)
	e.release(a, relATR, cycle)
}

// tryERRelease frees an unclaimed register once its redefiner has
// precommitted and it is fully consumed (non-speculative early release).
func (e *Engine) tryERRelease(a Alloc, cycle uint64) {
	if e.cfg.Scheme != config.SchemeNonSpecER && e.cfg.Scheme != config.SchemeCombined {
		return
	}
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.free || p.gen != a.Gen || p.claimed || !p.redefPre || p.count != 0 || p.writePending {
		return
	}
	b.early.add(a.Tag, a.Gen, p.erArch)
	e.release(a, relER, cycle)
}

// RedefinerPrecommitted notifies that the instruction whose rename produced
// d has precommitted (all older flushers resolved). This is both the
// nonspec-ER release trigger and the Figure 4 verified-unused boundary.
func (e *Engine) RedefinerPrecommitted(d DstAlloc, cycle uint64) {
	if !d.Prev.Valid() {
		return
	}
	if life := e.life(d.Prev); life != nil && life.Precommitted == 0 {
		life.Precommitted = cycle
	}
	b := &e.banks[d.Prev.Class]
	if !d.PrevValid {
		// Claimed: ATR owns the release; the region no longer
		// straddles the precommit boundary.
		if cs := b.claims.ref(d.Prev.Tag, d.Prev.Gen, d.Reg); cs != nil && !cs.redefPre {
			cs.redefPre = true
			if cs.allocPre {
				e.openPre--
			}
		}
		return
	}
	p := &b.pregs[d.Prev.Tag]
	if p.gen == d.Prev.Gen && !p.free && !p.redefPre {
		// Early-release arbitration is serialized per register: if
		// another mapping's redefiner already precommitted and is
		// awaiting consumption, this mapping falls back to commit
		// release (only possible under move elimination).
		p.redefPre = true
		p.erArch = d.Reg
		e.tryERRelease(d.Prev, cycle)
	}
}

// RedefinerCommitted notifies that the renaming instruction that produced d
// has committed. The previous mapping is conventionally released here unless
// an early-release mechanism already freed it (the generation and free-state
// checks make commit release exactly-once). It also finalizes the previous
// allocation's lifetime record and the interrupt region counter.
func (e *Engine) RedefinerCommitted(d DstAlloc, cycle uint64) {
	if !d.Prev.Valid() {
		return
	}
	b := &e.banks[d.Prev.Class]
	if e.Ledger != nil {
		if rec, ok := b.lives.take(d.Prev.Tag, d.Prev.Gen); ok {
			rec.Committed = cycle
			if rec.Precommitted == 0 {
				rec.Precommitted = cycle
			}
			e.Ledger.Record(&rec)
		}
	}
	if !d.PrevValid {
		// Claimed by ATR. Close the interrupt region if it was open.
		if cs, ok := b.claims.take(d.Prev.Tag, d.Prev.Gen, d.Reg); ok && cs.allocCommitted {
			e.openRegions--
		}
		if b.early.takeOne(d.Prev.Tag, d.Prev.Gen, d.Reg) {
			return
		}
		// ATR has not released this mapping yet (it is still awaiting
		// its delayed redefine signal); commit of the redefiner makes
		// it dead for certain, so force the release now.
		p := &b.pregs[d.Prev.Tag]
		if p.gen == d.Prev.Gen && !p.free {
			e.release(d.Prev, relATR, cycle)
		}
		return
	}
	if b.early.takeOne(d.Prev.Tag, d.Prev.Gen, d.Reg) {
		return // nonspec-ER already dropped this mapping
	}
	p := &b.pregs[d.Prev.Tag]
	if p.gen == d.Prev.Gen && !p.free {
		e.release(d.Prev, relCommit, cycle)
	}
}

// AllocCommitted notifies that the instruction whose rename produced d has
// committed; used by the interrupt-flush region counter. Either ordering of
// claim and allocator-commit is handled: the claim path reads the per-preg
// allocCommitted flag, and this path updates any claim already open.
func (e *Engine) AllocCommitted(d DstAlloc) {
	a := d.New
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen == a.Gen {
		p.allocCommitted = true
	}
	if cs := b.claims.ref(a.Tag, a.Gen, d.Reg); cs != nil && !cs.allocCommitted {
		cs.allocCommitted = true
		e.openRegions++
	}
}

// AllocPrecommitted notifies that the instruction whose rename produced d
// has precommitted; it can never be flushed again, so a claim on its mapping
// now straddles the precommit boundary until the redefiner precommits too.
func (e *Engine) AllocPrecommitted(d DstAlloc) {
	a := d.New
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.gen == a.Gen {
		p.allocPrecommitted = true
	}
	if cs := b.claims.ref(a.Tag, a.Gen, d.Reg); cs != nil && !cs.allocPre {
		cs.allocPre = true
		if !cs.redefPre {
			e.openPre++
		}
	}
}

// OpenRegions returns the paper's §4.1 counter: atomic regions whose
// allocator has committed while the redefiner is still in flight.
func (e *Engine) OpenRegions() int { return e.openRegions }

// OpenPrecommitRegions returns the number of atomic regions straddling the
// precommit pointer; flushing the non-precommitted ROB suffix (the interrupt
// flush policy) is unsafe while it is non-zero.
func (e *Engine) OpenPrecommitRegions() int { return e.openPre }

// FlushInstr processes the flush of one instruction during the recovery
// walk: its new allocations are reclaimed (unless ATR already released
// them), and redefine state recorded on its previous mappings is undone.
func (e *Engine) FlushInstr(out *RenameOut, cycle uint64) {
	for i := 0; i < isa.MaxDsts; i++ {
		d := out.Dsts[i]
		if !d.New.Valid() {
			continue
		}
		// Undo the redefinition of prev: the previous mapping is live
		// again (its redefiner is gone).
		if d.Prev.Valid() && d.PrevValid {
			if life := e.life(d.Prev); life != nil {
				life.Redefined = 0
				life.Precommitted = 0
			}
			b := &e.banks[d.Prev.Class]
			p := &b.pregs[d.Prev.Tag]
			if p.gen == d.Prev.Gen && p.erArch == d.Reg {
				p.redefPre = false
			}
		}
		// Reclaim the flushed instruction's own allocation. An
		// eliminated move holds only a reference to a register someone
		// else allocated: drop the reference but leave the original
		// allocation's lifetime and claim state alone.
		b := &e.banks[d.New.Class]
		if !d.Eliminated && e.Ledger != nil {
			if rec, ok := b.lives.take(d.New.Tag, d.New.Gen); ok {
				rec.WrongPath = true
				e.Ledger.Record(&rec)
			}
		}
		b.claims.take(d.New.Tag, d.New.Gen, d.Reg)
		if b.early.takeOne(d.New.Tag, d.New.Gen, d.Reg) {
			// This mapping's reference was already dropped early;
			// the flush must not drop it again.
			continue
		}
		p := &b.pregs[d.New.Tag]
		if p.gen == d.New.Gen && !p.free {
			e.release(d.New, relFlush, cycle)
		}
	}
}

// WalkRestoreDst restores the SRT mapping for one flushed destination during
// a backward (youngest-to-oldest) recovery walk. Invalid previous ptags are
// skipped: an atomic region flushes as a unit, so the in-region allocator's
// own restore supersedes (§4.2.4 discussion).
func (e *Engine) WalkRestoreDst(d DstAlloc) {
	if !d.New.Valid() || !d.PrevValid || !d.Prev.Valid() {
		return
	}
	b := &e.banks[d.Reg.Class()]
	b.srt[d.Reg.ClassIndex()] = d.Prev.Tag
}

// ReplayDst re-applies one surviving instruction's destination mapping
// during forward-replay recovery (§4.2.1: restore the most recent checkpoint,
// then walk from the checkpoint to the flush point re-applying mappings).
func (e *Engine) ReplayDst(d DstAlloc) {
	if !d.New.Valid() || !d.Reg.Valid() {
		return
	}
	b := &e.banks[d.Reg.Class()]
	b.srt[d.Reg.ClassIndex()] = d.New.Tag
}

// TakeCheckpoint snapshots both SRTs (taken at branches). Checkpoints come
// from a free list; callers hand them back via ReleaseCheckpoint when the
// owning instruction commits or squashes.
func (e *Engine) TakeCheckpoint() *Checkpoint {
	var cp *Checkpoint
	if n := len(e.cpPool) - 1; n >= 0 {
		cp = e.cpPool[n]
		e.cpPool[n] = nil
		e.cpPool = e.cpPool[:n]
	} else {
		cp = &Checkpoint{}
	}
	for c := range e.banks {
		cp.srt[c] = append(cp.srt[c][:0], e.banks[c].srt...)
	}
	return cp
}

// ReleaseCheckpoint recycles a checkpoint whose owning instruction no longer
// needs it. nil is ignored.
func (e *Engine) ReleaseCheckpoint(cp *Checkpoint) {
	if cp == nil {
		return
	}
	e.cpPool = append(e.cpPool, cp)
}

// RestoreCheckpoint rewinds both SRTs to cp.
func (e *Engine) RestoreCheckpoint(cp *Checkpoint) {
	for c := range e.banks {
		copy(e.banks[c].srt, cp.srt[c])
	}
}

// release drops one reference to a; the register returns to the free list
// when the last reference goes (move elimination shares registers across
// mappings, each released independently — the paper's "decrement instead of
// release" extension).
func (e *Engine) release(a Alloc, kind relKind, cycle uint64) {
	b := &e.banks[a.Class]
	p := &b.pregs[a.Tag]
	if p.free || p.refs <= 0 {
		panic(fmt.Sprintf("core: double free of %v", a))
	}
	p.refs--
	p.claimed = false
	p.redefined = false
	p.redefPre = false
	e.Stats.Add(e.hRelease[kind], 1)
	if e.trace != nil {
		e.trace.Release(obs.ReleaseEvent{
			Cycle:  cycle,
			Scheme: relSchemeNames[kind],
			Region: p.region.String(),
			Class:  int(a.Class),
			Tag:    int(a.Tag),
		})
	}
	if p.refs > 0 {
		return
	}
	p.free = true
	b.free = append(b.free, a.Tag)
}

// Finalize records all still-tracked lifetimes (end of simulation window);
// without TrackLifetimes it does nothing. Drain order is ascending tag per
// class — deterministic, and harmless to results because the ledger
// accumulates order-insensitive sums.
func (e *Engine) Finalize() {
	if e.Ledger == nil {
		return
	}
	for c := range e.banks {
		e.banks[c].lives.drain(func(l *stats.RegLifetime) { e.Ledger.Record(l) })
	}
}

// CheckInvariants verifies free-list/allocation consistency; it returns an
// error describing the first violation. Tests call it after every flush and
// at end of run.
func (e *Engine) CheckInvariants() error {
	for c := range e.banks {
		b := &e.banks[c]
		inFree := make(map[PTag]bool, len(b.free))
		for _, t := range b.free {
			if inFree[t] {
				return fmt.Errorf("core: ptag %d appears twice in class %d free list", t, c)
			}
			if !b.pregs[t].free {
				return fmt.Errorf("core: ptag %d in free list but not marked free", t)
			}
			inFree[t] = true
		}
		nFree := 0
		for t := range b.pregs {
			if b.pregs[t].free {
				nFree++
				if !inFree[PTag(t)] {
					return fmt.Errorf("core: ptag %d marked free but missing from free list", t)
				}
				if b.pregs[t].refs != 0 {
					return fmt.Errorf("core: free ptag %d has %d references", t, b.pregs[t].refs)
				}
			} else if b.pregs[t].refs < 1 {
				return fmt.Errorf("core: live ptag %d has %d references", t, b.pregs[t].refs)
			}
		}
		if nFree != len(b.free) {
			return fmt.Errorf("core: class %d free count mismatch: %d marked vs %d listed", c, nFree, len(b.free))
		}
		for a, t := range b.srt {
			if t < 0 || int(t) >= len(b.pregs) {
				return fmt.Errorf("core: class %d SRT[%d] out of range: %d", c, a, t)
			}
			if b.pregs[t].free {
				return fmt.Errorf("core: class %d SRT[%d] maps to free ptag %d", c, a, t)
			}
		}
		if err := b.lives.check(); err != nil {
			return err
		}
		if err := b.claims.check(); err != nil {
			return err
		}
		if err := b.early.check(); err != nil {
			return err
		}
	}
	if e.openRegions < 0 {
		return fmt.Errorf("core: negative open-region counter %d", e.openRegions)
	}
	if e.openPre < 0 {
		return fmt.Errorf("core: negative precommit open-region counter %d", e.openPre)
	}
	return nil
}
