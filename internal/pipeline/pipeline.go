package pipeline

import (
	"fmt"

	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/config"
	"atr/internal/core"
	"atr/internal/isa"
	"atr/internal/obs"
	"atr/internal/power"
	"atr/internal/program"
	"atr/internal/stats"
)

// frontendDepth is the fetch-to-rename pipeline depth in cycles (fetch,
// decode, and queue stages); it sets the misprediction redirect penalty
// together with the L1I latency.
const frontendDepth = 4

// exceptionCost is the pipeline penalty charged when a synchronous
// exception (injected fault) is taken.
const exceptionCost = 30

// instBytes is the footprint of one micro-instruction in the I-cache model.
const instBytes = 4

// CPU is one simulated core executing one program.
type CPU struct {
	cfg    config.Config
	prog   *program.Program
	Engine *core.Engine
	Pred   *bpred.Predictor
	Mem    *cache.Hierarchy
	Data   *program.Memory

	// Register file values and readiness, indexed [class][ptag].
	vals  [isa.NumClasses][]uint64
	ready [isa.NumClasses][]bool

	// Frontend state. decodeQ is head-indexed (decodeQ[dqHead:] is the
	// live queue) so popping reuses the backing array instead of
	// reslicing capacity away.
	fetchPC   uint64
	fetchHold uint64 // no fetch before this cycle
	decodeQ   []*uop
	dqHead    int
	seq       uint64

	// Backend state. sq is head-indexed like decodeQ (sq[sqHead:] is the
	// live store queue, fetch order). inflight is used by the scan
	// scheduler only; the event scheduler tracks completions in its wheel.
	rob      *rob
	inflight []*uop // issued, completion pending (scan mode)
	sq       []*uop
	sqHead   int
	rsCount  int
	lqCount  int
	sqCount  int
	prePtr   int // entries from ROB head that have precommitted

	// ev is the event-driven scheduler state; nil selects the scan
	// reference scheduler.
	ev *evsched

	// mut arms one deliberately broken LSQ behavior for mutation testing
	// (mutate.go). Zero (mutNone) outside tests.
	mut lsqMutation

	// squashBuf is the reusable scratch for squashFrom.
	squashBuf []*uop

	// Architectural state.
	archPC    uint64
	committed uint64
	cycle     uint64

	// Incremental-run state (RunFor/Finish): deadlock-watchdog progress
	// tracking and whether the program halted, carried across budget
	// slices so a sliced run behaves exactly like an unsliced one.
	runLastCommit uint64
	runStuck      uint64
	runHalted     bool

	// acts counts state-changing stage actions; a step that leaves it
	// unchanged was quiescent, and RunFor may jump the clock over the
	// quiescent cycles that follow (horizon.go). skipped counts the cycles
	// jumped rather than stepped.
	acts    uint64
	skipped uint64

	// Exceptions and interrupts.
	faulted          map[uint64]bool // PCs whose one-shot fault already fired
	pendingInterrupt bool
	interruptFlushed bool // flush-mode: suffix discarded, prefix draining

	// OnCommit, when set, receives every architecturally committed
	// instruction (oracle comparison hook).
	OnCommit func(program.Record)

	// Counters. hLSQForwards and hIntrDeferred are pre-resolved handles so
	// the forwarding and interrupt-defer hot paths increment by index.
	Stats         *stats.Counters
	hLSQForwards  stats.Handle
	hIntrDeferred stats.Handle
	mispredicts   uint64
	flushes       uint64
	exceptions    uint64
	interrupts    uint64
	renameStall   uint64

	// Register-file occupancy accounting (for utilization stats).
	occupancySum uint64

	// Activity counters for the power model.
	srcReads  uint64
	aluOps    uint64
	memOps    uint64
	branchOps uint64
	squashed  uint64

	// cpCount tracks outstanding SRT checkpoints (budgeted mode).
	cpCount int

	// obs, when non-nil, receives pipeline events and interval samples.
	// Disabled observation costs the per-cycle and per-commit paths one
	// pointer compare each.
	obs *obs.Observer
}

// Observe attaches observation hooks to the CPU (nil detaches). The
// tracer, if any, is also handed to the release engine.
func (c *CPU) Observe(o *obs.Observer) {
	if !o.Enabled() {
		c.obs = nil
		c.Engine.SetTracer(nil)
		return
	}
	c.obs = o
	c.Engine.SetTracer(o.Tracer)
}

// shouldCheckpoint decides whether this mispredictable instruction gets an
// SRT checkpoint. With no budget configured, every one does; under a budget,
// only low-confidence conditional branches and indirect transfers are worth
// one (§4.2.1), and recovery at a non-checkpointed instruction reconstructs
// the SRT from the nearest older checkpoint plus forward replay.
func (c *CPU) shouldCheckpoint(u *uop) bool {
	if c.cfg.WalkRecovery {
		return false
	}
	if c.cfg.CheckpointBudget <= 0 {
		return true
	}
	if c.cpCount >= c.cfg.CheckpointBudget {
		return false
	}
	if u.inst.Op.IsIndirect() {
		return true
	}
	return !u.pred.Tage.Confident
}

// SchedulerKind selects the backend scheduling implementation. Both
// produce bit-identical simulations; the scan scheduler is the reference
// the event scheduler is validated against.
type SchedulerKind int

const (
	// SchedulerEvent is the event-driven scheduler: register wakeup
	// lists, a completion timing wheel, indexed store-queue search, and
	// uop pooling (see sched.go).
	SchedulerEvent SchedulerKind = iota
	// SchedulerScan is the reference implementation that re-scans the
	// ROB, inflight set, and store queue every cycle (see scan.go).
	SchedulerScan
)

// New builds a CPU for cfg running prog with the event-driven scheduler.
// It panics on an invalid configuration (callers validate via
// cfg.Validate()).
func New(cfg config.Config, prog *program.Program) *CPU {
	return NewWithScheduler(cfg, prog, SchedulerEvent)
}

// NewWithScheduler builds a CPU with an explicit scheduler implementation.
func NewWithScheduler(cfg config.Config, prog *program.Program, kind SchedulerKind) *CPU {
	return NewWithParts(cfg, prog, kind, nil, nil)
}

// NewWithParts is NewWithScheduler around a caller-owned predictor and
// cache hierarchy, which must be built from cfg; a nil part is built fresh.
// The CPU uses the parts as they are: a sampling driver that recycles one
// predictor and hierarchy across its windows calls RestoreLive next, which
// overwrites their state with the warm state.
func NewWithParts(cfg config.Config, prog *program.Program, kind SchedulerKind, pred *bpred.Predictor, mem *cache.Hierarchy) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if pred == nil {
		pred = bpred.New(cfg)
	}
	if mem == nil {
		mem = cache.NewHierarchy(cfg)
	}
	c := &CPU{
		cfg:     cfg,
		prog:    prog,
		Engine:  core.NewEngine(cfg),
		Pred:    pred,
		Mem:     mem,
		Data:    program.NewMemory(prog.MemSeed),
		rob:     newROB(cfg.ROBSize),
		faulted: make(map[uint64]bool),
		Stats:   stats.NewCounters(),
	}
	c.hLSQForwards = c.Stats.Handle("lsq.forwards")
	c.hIntrDeferred = c.Stats.Handle("interrupt.deferred_cycles")
	n := c.Engine.PhysRegsPerClass()
	for cl := 0; cl < int(isa.NumClasses); cl++ {
		c.vals[cl] = make([]uint64, n)
		c.ready[cl] = make([]bool, n)
	}
	init := prog.InitialRegs()
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		a := c.Engine.Lookup(r)
		c.vals[a.Class][a.Tag] = init[r]
		c.ready[a.Class][a.Tag] = true
	}
	if kind == SchedulerEvent {
		// Slab capacity is exact: a live uop is always in the decode
		// queue or the ROB, both bounded (plus slack for the squash
		// walk's transient).
		c.ev = newEvsched(n, cfg.DecodeQueue+cfg.ROBSize+8)
	}
	return c
}

// Result summarizes one simulation run.
type Result struct {
	Cycles           uint64
	Committed        uint64
	IPC              float64
	Mispredicts      uint64
	Flushes          uint64
	Exceptions       uint64
	Interrupts       uint64
	RenameStalls     uint64
	BranchAccuracy   float64
	IndirectAccuracy float64
	L1DHitRate       float64
	AvgRegsLive      float64
	Halted           bool
}

// Run simulates until maxInstr instructions commit or the program halts,
// and returns the run summary. It panics if the machine deadlocks (no
// commit progress for an implausibly long window), which would indicate a
// model bug.
func (c *CPU) Run(maxInstr uint64) Result {
	c.runLastCommit = c.committed
	c.runStuck = 0
	c.runHalted = false
	for !c.RunFor(maxInstr, ^uint64(0)) {
	}
	return c.Finish()
}

// stuckLimit is the deadlock watchdog: RunFor panics once this many
// consecutive cycles pass without a commit.
const stuckLimit = 1_000_000

// RunFor advances the simulation by at most budget cycles, stopping early
// once maxInstr instructions have committed or the program halts. It
// returns true when the run is finished (target reached or halted) and
// false when only the cycle budget expired — call again to continue.
//
// With the event scheduler, a step that changes no machine state lets
// RunFor jump the clock to the next cycle at which any stage can act,
// crediting the per-cycle counters for the span (horizon.go). The machine
// state at every cycle that is stepped, and at every slice boundary, is
// identical to a run that steps every cycle, no matter how the budget
// slices the run: a jump never crosses the end of a slice. That is what
// lets the sweep engine's lockstep lanes interleave without perturbing a
// single bit of any lane's result.
func (c *CPU) RunFor(maxInstr, budget uint64) bool {
	for c.committed < maxInstr {
		if c.robEmptyAndHalted() {
			c.runHalted = true
			return true
		}
		if budget == 0 {
			return false
		}
		budget--
		acts, stalls := c.acts, c.renameStall
		c.step()
		if c.committed == c.runLastCommit {
			c.runStuck++
			if c.runStuck > stuckLimit {
				panic(fmt.Sprintf("pipeline: no commit progress for 1M cycles at cycle %d (pc=%d hold=%d rob=%d dq=%d inflight=%d pending=%v open=%d free=%d committed=%d)",
					c.cycle, c.fetchPC, c.fetchHold, c.rob.len(), c.dqLen(),
					c.inflightCount(), c.pendingInterrupt, c.Engine.OpenRegions(),
					c.Engine.FreeCount(isa.ClassGPR), c.committed))
			}
		} else {
			c.runStuck = 0
			c.runLastCommit = c.committed
		}
		if c.acts == acts && c.ev != nil {
			budget -= c.skipQuiescent(budget, c.renameStall != stalls)
		}
	}
	return true
}

// Finish finalizes the sampler and the release engine and returns the run
// summary. Call exactly once after RunFor reports the run finished; Run
// does both for the common single-shot case.
func (c *CPU) Finish() Result {
	if c.obs != nil && c.obs.Sampler != nil {
		c.obs.Sampler.Finalize(c.snapshot())
	}
	c.Engine.Finalize()
	res := Result{
		Cycles:           c.cycle,
		Committed:        c.committed,
		Mispredicts:      c.mispredicts,
		Flushes:          c.flushes,
		Exceptions:       c.exceptions,
		Interrupts:       c.interrupts,
		RenameStalls:     c.renameStall,
		BranchAccuracy:   c.Pred.CondAccuracy(),
		IndirectAccuracy: c.Pred.IndirectAccuracy(),
		L1DHitRate:       c.Mem.L1D.HitRate(),
		Halted:           c.runHalted,
	}
	if c.cycle > 0 {
		res.IPC = float64(c.committed) / float64(c.cycle)
		res.AvgRegsLive = float64(c.occupancySum) / float64(c.cycle)
	}
	return res
}

func (c *CPU) robEmptyAndHalted() bool {
	return c.rob.len() == 0 && c.dqLen() == 0 && !c.prog.ValidPC(c.fetchPC)
}

// inflightCount returns issued-but-incomplete uops (mode-independent).
func (c *CPU) inflightCount() int {
	if c.ev != nil {
		return c.ev.pending
	}
	return len(c.inflight)
}

// newUop returns a zeroed uop, recycled from the free list in event mode.
func (c *CPU) newUop() *uop {
	if c.ev != nil {
		return c.ev.getUop()
	}
	return new(uop)
}

// ------------------------------------------------- head-indexed queues
//
// decodeQ and sq pop from the front; plain reslicing (q = q[1:]) would
// strand the popped capacity and re-allocate forever in steady state, so
// both queues keep a head index and compact the backing array once the
// dead prefix grows.

func (c *CPU) dqLen() int    { return len(c.decodeQ) - c.dqHead }
func (c *CPU) dqFront() *uop { return c.decodeQ[c.dqHead] }
func (c *CPU) dqPush(u *uop) { c.decodeQ = append(c.decodeQ, u) }

func (c *CPU) dqPopFront() {
	c.decodeQ[c.dqHead] = nil
	c.dqHead++
	if c.dqHead < len(c.decodeQ) && c.dqHead < 64 {
		return
	}
	n := copy(c.decodeQ, c.decodeQ[c.dqHead:])
	clear(c.decodeQ[n:])
	c.decodeQ = c.decodeQ[:n]
	c.dqHead = 0
}

// dqClear empties the decode queue, recycling the never-renamed uops in
// event mode (they are registered nowhere else).
func (c *CPU) dqClear() {
	for i := c.dqHead; i < len(c.decodeQ); i++ {
		if c.ev != nil {
			c.ev.putUop(c.decodeQ[i])
		}
		c.decodeQ[i] = nil
	}
	c.decodeQ = c.decodeQ[:0]
	c.dqHead = 0
}

func (c *CPU) sqLen() int    { return len(c.sq) - c.sqHead }
func (c *CPU) sqFront() *uop { return c.sq[c.sqHead] }

func (c *CPU) sqPopFront() {
	c.sq[c.sqHead] = nil
	c.sqHead++
	if c.sqHead < len(c.sq) && c.sqHead < 64 {
		return
	}
	n := copy(c.sq, c.sq[c.sqHead:])
	clear(c.sq[n:])
	c.sq = c.sq[:n]
	if c.ev != nil {
		c.ev.sqFirst -= c.sqHead // sqFirst >= sqHead always holds
	}
	c.sqHead = 0
}

// step advances the machine by one cycle.
func (c *CPU) step() {
	c.maybeInterrupt()
	if c.ev != nil {
		c.evCompleteStage()
		c.evCaptureStoreData()
	} else {
		c.scanCompleteStage()
		c.scanCaptureStoreData()
	}
	c.precommitStage()
	c.commitStage()
	if c.ev != nil {
		c.evIssueStage()
	} else {
		c.scanIssueStage()
	}
	c.renameStage()
	c.fetchStage()
	if c.Engine.Tick(c.cycle) {
		c.acts++
	}
	c.occupancySum += uint64(c.Engine.PhysRegsPerClass() - c.Engine.FreeCount(isa.ClassGPR))
	c.cycle++
	if c.obs != nil {
		c.sampleTick()
	}
}

// sampleTick records an interval sample when the cycle counter crosses a
// boundary. Kept out of step so the disabled path is a single nil check.
func (c *CPU) sampleTick() {
	if s := c.obs.Sampler; s != nil && s.Due(c.cycle) {
		s.Record(c.snapshot())
	}
}

// snapshot captures the cumulative machine state for the sampler.
func (c *CPU) snapshot() obs.Snapshot {
	st := c.Engine.Stats
	return obs.Snapshot{
		Cycle:          c.cycle,
		Committed:      c.committed,
		Mispredicts:    c.mispredicts,
		Flushes:        c.flushes,
		RenameStalls:   c.renameStall,
		BranchAccuracy: c.Pred.CondAccuracy(),
		ROB:            c.rob.len(),
		RS:             c.rsCount,
		LQ:             c.lqCount,
		SQ:             c.sqCount,
		FreeGPR:        c.Engine.FreeCount(isa.ClassGPR),
		FreeFPR:        c.Engine.FreeCount(isa.ClassFPR),
		ReleaseATR:     st.Get("release.atr"),
		ReleaseER:      st.Get("release.er"),
		ReleaseCommit:  st.Get("release.commit"),
		ReleaseFlush:   st.Get("release.flush"),
	}
}

// traceUop emits u's stage-timestamp record (commit or squash).
func (c *CPU) traceUop(u *uop, squashed bool) {
	t := c.obs.Tracer
	if t == nil {
		return
	}
	ev := obs.UopEvent{
		Seq:      u.seq,
		PC:       u.pc,
		Op:       u.inst.Op.String(),
		Fetch:    u.fetchedAt,
		Rename:   u.renCycle,
		Dispatch: u.renCycle,
		Squashed: squashed,
	}
	if u.issued {
		ev.Issue = u.issueAt
	}
	if u.executed {
		ev.Complete = u.doneAt
	}
	if u.precommitted {
		ev.Precommit = u.preAt
	}
	if !squashed {
		ev.Commit = c.cycle
	}
	t.Uop(ev)
}

// ---------------------------------------------------------------- frontend

func (c *CPU) fetchStage() {
	if c.pendingInterrupt && c.cfg.InterruptMode == config.InterruptDrain {
		return // draining: no new fetch
	}
	if c.interruptFlushed {
		return // flush-mode prefix drain in progress
	}
	if c.cycle < c.fetchHold {
		return
	}
	taken := 0
	for fetched := 0; fetched < c.cfg.FetchWidth; fetched++ {
		if c.dqLen() >= c.cfg.DecodeQueue {
			return
		}
		pc := c.fetchPC
		if !c.prog.ValidPC(pc) {
			return // wrong-path garbage or program end: wait for redirect
		}
		done := c.Mem.AccessInst(pc*instBytes, c.cycle)
		c.acts++
		if done > c.cycle+uint64(c.cfg.L1I.Latency) {
			// I-cache miss: stall fetch until the fill arrives (the
			// line is now resident, so the retry hits).
			c.fetchHold = done
			return
		}
		in := c.prog.At(pc)
		u := c.newUop()
		u.seq = c.seq
		u.pc = pc
		u.inst = in
		u.fetchedAt = c.cycle
		u.renameable = c.cycle + frontendDepth
		u.predNext = pc + 1
		c.seq++
		if in.Op.IsControl() {
			c.Pred.PredictInto(in, pc, &u.pred)
			u.hasPred = true
			if u.pred.Taken {
				u.predNext = u.pred.Target
				taken++
			}
		}
		c.dqPush(u)
		c.fetchPC = u.predNext
		if taken >= c.cfg.FetchTargets {
			return // fetch-target budget exhausted this cycle
		}
	}
}

func (c *CPU) renameStage() {
	for n := 0; n < c.cfg.RenameWidth && c.dqLen() > 0; n++ {
		u := c.dqFront()
		if u.renameable > c.cycle || c.rob.full() || c.rsCount >= c.cfg.RSSize {
			return
		}
		if u.isLoad() && c.lqCount >= c.cfg.LoadQueue {
			return
		}
		if u.isStore() && c.sqCount >= c.cfg.StoreQueue {
			return
		}
		if !c.Engine.CanRename() {
			c.renameStall++
			return
		}
		c.Engine.RenameInto(u.inst, c.cycle, &u.ren)
		c.acts++
		u.renamed = true
		u.renCycle = c.cycle
		for i := 0; i < isa.MaxDsts; i++ {
			d := u.ren.Dsts[i]
			if d.New.Valid() && !d.Eliminated {
				c.ready[d.New.Class][d.New.Tag] = false
			}
		}
		if u.mispredictable() && c.shouldCheckpoint(u) {
			u.cp = c.Engine.TakeCheckpoint()
			c.cpCount++
		}
		c.rob.push(u)
		c.rsCount++
		switch {
		case u.isLoad():
			c.lqCount++
		case u.isStore():
			c.sqCount++
			c.sq = append(c.sq, u)
		}
		if c.ev != nil {
			c.onRename(u)
		}
		c.dqPopFront()
	}
}

// ----------------------------------------------------------------- backend

func (c *CPU) srcsReady(u *uop) bool {
	for i := 0; i < isa.MaxSrcs; i++ {
		if !u.inst.Srcs[i].Valid() {
			continue
		}
		if u.isStore() && i == 1 {
			continue // store data is captured separately (STD)
		}
		a := u.ren.Srcs[i]
		if !c.ready[a.Class][a.Tag] {
			return false
		}
	}
	return true
}

// forwardFrom returns the youngest older store matching ea, if any, via
// the active scheduler's search structure (or the mutated search when the
// test-only mutation harness is armed; see mutate.go).
func (c *CPU) forwardFrom(u *uop, ea uint64) *uop {
	if c.mut != mutNone {
		return c.mutForwardFrom(u, ea)
	}
	if c.ev != nil {
		return c.ev.fwdLookup(ea, u.seq)
	}
	return c.scanForwardFrom(u, ea)
}

// forwardStall returns the forwarding match whose pending store data forces
// u to stall this cycle, or nil when u may issue. Both schedulers route
// their pre-issue stall decision through here so the data-readiness rule
// (and its mutation) lives in exactly one place.
func (c *CPU) forwardStall(u *uop, ea uint64) *uop {
	s := c.forwardFrom(u, ea)
	if s == nil || s.stDataRdy || c.mut == mutForwardStaleData {
		return nil
	}
	return s
}

// issue schedules u for execution: reads sources (notifying the release
// engine), evaluates the functional semantics, and assigns the completion
// cycle.
func (c *CPU) issue(u *uop) {
	u.issued = true
	u.issueAt = c.cycle
	c.rsCount--

	var srcs [isa.MaxSrcs]uint64
	for i := 0; i < isa.MaxSrcs; i++ {
		if !u.inst.Srcs[i].Valid() {
			continue
		}
		if u.isStore() && i == 1 {
			continue // read at STD capture instead
		}
		a := u.ren.Srcs[i]
		srcs[i] = c.vals[a.Class][a.Tag]
		c.Engine.ConsumerIssued(a, c.cycle)
		c.srcReads++
	}
	switch {
	case u.inst.Op.IsMem():
		c.memOps++
	case u.inst.Op.IsControl():
		c.branchOps++
	default:
		c.aluOps++
	}

	lat := uint64(u.inst.Op.Latency())
	switch {
	case u.isLoad():
		ea := program.EffAddr(u.inst, srcs[0])
		u.ea, u.eaKnown = ea, true
		var loadVal uint64
		if s := c.forwardFrom(u, ea); s != nil {
			loadVal = s.out.StoreVal
			u.doneAt = c.cycle + uint64(c.cfg.L1D.Latency)
			c.Stats.Add(c.hLSQForwards, 1)
		} else {
			loadVal = c.Data.Read(ea)
			u.doneAt = c.Mem.AccessData(ea, false, c.cycle)
		}
		program.Eval(u.inst, u.pc, srcs[0], srcs[1], loadVal, &u.out)
	case u.isStore():
		// STA: only the address half executes here; the data half is
		// captured by captureStoreData when its producer completes.
		u.ea = program.EffAddr(u.inst, srcs[0])
		u.eaKnown = true
		u.out = program.Outcome{EA: u.ea, NextPC: u.pc + 1}
		u.doneAt = c.cycle + lat
	default:
		program.Eval(u.inst, u.pc, srcs[0], srcs[1], 0, &u.out)
		u.doneAt = c.cycle + lat
	}
	u.actualNext = u.out.NextPC

	// Deterministic one-shot fault injection on faultable ops.
	if c.cfg.FaultRate > 0 && u.inst.Op.CanFault() && !c.faulted[u.pc] {
		if program.Mix(u.pc^0xFA017)%uint64(c.cfg.FaultRate) == 0 {
			u.fault = true
		}
	}
	if c.ev != nil {
		c.onIssue(u)
	} else {
		c.inflight = append(c.inflight, u)
	}
}

func (c *CPU) writeback(u *uop) {
	u.executed = true
	for i := 0; i < isa.MaxDsts; i++ {
		d := u.ren.Dsts[i]
		if !d.New.Valid() || d.Eliminated {
			// An eliminated move's destination aliases its source:
			// the true producer owns the value, readiness, and the
			// write-pending release condition.
			continue
		}
		c.vals[d.New.Class][d.New.Tag] = u.out.DstVals[i]
		c.ready[d.New.Class][d.New.Tag] = true
		c.Engine.ProducerCompleted(d.New, c.cycle)
		if c.ev != nil {
			c.wake(d.New)
		}
	}
}

// recoverFrom flushes everything younger than u and redirects fetch to u's
// actual target.
func (c *CPU) recoverFrom(u *uop) {
	c.mispredicts++
	// Pick the recovery style: u's own checkpoint if it has one, else the
	// nearest older checkpoint plus forward replay (§4.2.1), else the
	// backward walk.
	var replayFrom int = -1
	useWalk := c.cfg.WalkRecovery
	if !useWalk && u.cp == nil {
		replayFrom = c.nearestCheckpoint(u.seq)
		useWalk = replayFrom < 0
	}
	c.squashFrom(u.seq+1, useWalk)
	switch {
	case useWalk:
		// SRT already restored by the walk.
	case u.cp != nil:
		c.Engine.RestoreCheckpoint(u.cp)
	default:
		// Restore the checkpointed instruction's SRT, then re-apply the
		// mappings of every surviving instruction between it and u.
		c.Engine.RestoreCheckpoint(c.rob.at(replayFrom).cp)
		for i := replayFrom + 1; i < c.rob.len(); i++ {
			s := c.rob.at(i)
			for j := 0; j < isa.MaxDsts; j++ {
				c.Engine.ReplayDst(s.ren.Dsts[j])
			}
		}
	}
	// Train and rewind the predictor.
	if u.hasPred {
		c.Pred.Resolve(u.inst, u.pc, &u.pred, u.out.Taken, u.actualNext)
		c.Pred.Recover(u.inst, u.pc, &u.pred, u.out.Taken)
	}
	c.fetchPC = u.actualNext
	c.fetchHold = c.cycle + 1
	c.dqClear()
	c.flushes++
}

// nearestCheckpoint returns the ROB index of the youngest instruction at or
// before seq that holds an SRT checkpoint, or -1.
func (c *CPU) nearestCheckpoint(seq uint64) int {
	for i := c.rob.len() - 1; i >= 0; i-- {
		u := c.rob.at(i)
		if u.seq <= seq && u.cp != nil {
			return i
		}
	}
	return -1
}

// squashFrom removes every ROB entry with seq >= minSeq, walking from the
// tail (youngest first). When useWalk is set the SRT is restored via the
// backward walk (skipping ATR-invalidated previous ptags); otherwise the
// caller restores a checkpoint afterwards. Engine reclamation (double-free
// avoidance) runs either way.
func (c *CPU) squashFrom(minSeq uint64, useWalk bool) {
	squashed := c.squashBuf[:0]
	for c.rob.len() > 0 {
		tail := c.rob.at(c.rob.len() - 1)
		if tail.seq < minSeq {
			break
		}
		u := c.rob.popTail()
		u.squashed = true
		c.squashed++
		if c.obs != nil {
			c.traceUop(u, true)
		}
		if u.cp != nil {
			c.cpCount--
			c.Engine.ReleaseCheckpoint(u.cp)
			u.cp = nil
		}
		squashed = append(squashed, u)
		if useWalk {
			for i := isa.MaxDsts - 1; i >= 0; i-- {
				c.Engine.WalkRestoreDst(u.ren.Dsts[i])
			}
		}
		c.Engine.FlushInstr(&u.ren, c.cycle)
		if !u.issued {
			c.rsCount--
		}
		switch {
		case u.isLoad():
			c.lqCount--
		case u.isStore():
			c.sqCount--
		}
	}
	// Undo the rename-time consumer counts of squashed consumers that
	// never read their sources. This runs after every FlushInstr: a
	// squashed consumer's redefiner is also squashed (it is younger), so
	// its redefine/precommit state has been undone by now — a counter
	// reaching zero here must not trigger a release against state that
	// the same flush is retracting (an interrupt can flush precommitted
	// instructions).
	for _, u := range squashed {
		if u.issued {
			// An issued store may still owe its data read (STD).
			if u.isStore() && !u.stDataRdy && u.inst.Srcs[1].Valid() {
				c.Engine.ConsumerFlushed(u.ren.Srcs[1], c.cycle)
			}
			continue
		}
		for i := 0; i < isa.MaxSrcs; i++ {
			if u.inst.Srcs[i].Valid() {
				c.Engine.ConsumerFlushed(u.ren.Srcs[i], c.cycle)
			}
		}
	}
	// Remove squashed stores from the store queue. Squashed entries are a
	// contiguous suffix (sq is seq-ordered and squashes remove a seq
	// suffix), so surviving entries keep their absolute indices and the
	// event scheduler's sqFirst cursor needs only a clamp.
	n := c.sqHead
	for i := c.sqHead; i < len(c.sq); i++ {
		s := c.sq[i]
		if s.squashed {
			if c.ev != nil && s.eaKnown {
				c.ev.fwdRemove(s)
			}
			continue
		}
		c.sq[n] = s
		n++
	}
	clear(c.sq[n:])
	c.sq = c.sq[:n]
	if c.ev != nil && c.ev.sqFirst > n {
		c.ev.sqFirst = n
	}
	// Drop squashed uops from the decode queue (they were never renamed).
	c.dqClear()
	if c.prePtr > c.rob.len() {
		c.prePtr = c.rob.len()
	}
	// Recycle the squashed uops. Their generation bump lazily invalidates
	// any wait-list, ready-heap, wheel, stall-list, or capture-queue entry
	// still referencing them.
	if c.ev != nil {
		for i, u := range squashed {
			c.ev.putUop(u)
			squashed[i] = nil
		}
	}
	c.squashBuf = squashed[:0]
}

// precommitStage advances the precommit pointer: an entry precommits when
// every older instruction has precommitted and the entry itself can no
// longer flush the pipeline (flushers must have completed fault-free). Like
// retirement, the pointer advances a bounded number of entries per cycle —
// precommit shares the commit logic's walk bandwidth — which keeps it from
// sprinting arbitrarily far ahead after a long stall resolves.
func (c *CPU) precommitStage() {
	for n := 0; c.prePtr < c.rob.len() && n < c.cfg.RetireWidth; n++ {
		u := c.rob.at(c.prePtr)
		if !u.renamed {
			break
		}
		if u.fault {
			break
		}
		// Flushers must resolve before anything younger precommits. In
		// the optional aggressive mode, loads/stores resolve at address
		// translation (issue) rather than data return.
		if u.inst.Op.IsMem() && c.cfg.MemPrecommitAtExec {
			if !u.issued {
				break
			}
		} else if u.inst.Op.IsFlusher() && !u.executed {
			break
		}
		if !u.precommitted {
			u.precommitted = true
			u.preAt = c.cycle
			for i := 0; i < isa.MaxDsts; i++ {
				if u.ren.Dsts[i].New.Valid() {
					c.Engine.AllocPrecommitted(u.ren.Dsts[i])
					c.Engine.RedefinerPrecommitted(u.ren.Dsts[i], c.cycle)
				}
			}
		}
		c.prePtr++
		c.acts++
	}
}

func (c *CPU) commitStage() {
	for n := 0; n < c.cfg.RetireWidth && c.rob.len() > 0; n++ {
		u := c.rob.at(0)
		if !u.executed || !u.precommitted || (u.isStore() && !u.stDataRdy) {
			if u.executed && u.fault {
				c.takeException(u)
			}
			return
		}
		c.rob.popHead()
		c.acts++
		if c.prePtr > 0 {
			c.prePtr--
		}
		if u.cp != nil {
			c.cpCount--
			c.Engine.ReleaseCheckpoint(u.cp)
			u.cp = nil
		}
		if u.isStore() {
			c.Data.Write(u.out.EA, u.out.StoreVal)
			c.sqCount--
			if c.sqLen() > 0 && c.sqFront() == u {
				if c.ev != nil {
					c.ev.fwdRemove(u)
				}
				c.sqPopFront()
			}
		}
		if u.isLoad() {
			c.lqCount--
		}
		for i := 0; i < isa.MaxDsts; i++ {
			d := u.ren.Dsts[i]
			if !d.New.Valid() {
				continue
			}
			c.Engine.AllocCommitted(d)
			c.Engine.RedefinerCommitted(d, c.cycle)
		}
		// Train the predictor on correctly predicted control flow
		// (mispredictions already trained at recovery).
		if u.hasPred && !u.mispredict {
			c.Pred.Resolve(u.inst, u.pc, &u.pred, u.out.Taken, u.actualNext)
		}
		c.archPC = u.actualNext
		c.committed++
		if c.obs != nil {
			c.traceUop(u, false)
		}
		if c.OnCommit != nil {
			c.OnCommit(program.Record{PC: u.pc, Op: u.inst.Op, Outcome: u.out})
		}
		if c.ev != nil {
			c.ev.putUop(u)
		}
	}
}

// takeException handles a precise synchronous exception at the ROB head:
// everything younger than the faulting instruction plus the instruction
// itself is flushed, architectural state is exactly the pre-fault state,
// and fetch restarts at the faulting PC after the handler penalty.
func (c *CPU) takeException(f *uop) {
	c.acts++
	c.exceptions++
	c.faulted[f.pc] = true
	pc := f.pc                // f is recycled by the squash below
	c.squashFrom(f.seq, true) // includes f itself
	c.fetchPC = pc
	c.fetchHold = c.cycle + exceptionCost
	c.dqClear()
	c.flushes++
}

// Activity summarizes the run's event counts for the power model.
func (c *CPU) Activity() power.Activity {
	return power.Activity{
		Cycles:    c.cycle,
		Committed: c.committed,
		Renamed:   c.Engine.Stats.Get("rename.alloc"),
		SrcReads:  c.srcReads,
		CacheAcc:  c.Mem.L1I.Hits + c.Mem.L1I.Misses + c.Mem.L1D.Hits + c.Mem.L1D.Misses,
		Flushed:   c.squashed,
		BranchOps: c.branchOps,
		ALUOps:    c.aluOps,
		MemOps:    c.memOps,
	}
}

// maybeInterrupt injects asynchronous interrupts per configuration.
func (c *CPU) maybeInterrupt() {
	iv := c.cfg.InterruptInterval
	if iv <= 0 {
		return
	}
	if c.cycle > 0 && c.cycle%uint64(iv) == 0 {
		c.pendingInterrupt = true
	}
	if !c.pendingInterrupt {
		return
	}
	c.acts++
	switch c.cfg.InterruptMode {
	case config.InterruptDrain:
		// Fetch is held (see fetchStage); vector once the ROB drains.
		if c.rob.len() == 0 && c.dqLen() == 0 {
			c.serveInterrupt()
		}
	case config.InterruptFlush:
		// Flush the not-yet-precommitted suffix of the ROB — but only
		// once no atomic region straddles the precommit boundary
		// (the §4.1 option (b) counter, at the precommit pointer:
		// precommitted instructions are guaranteed to commit, which
		// both ATR claims and non-speculative early release rely on).
		// The precommitted prefix then drains before vectoring.
		if !c.interruptFlushed {
			if c.Engine.OpenPrecommitRegions() > 0 {
				c.Stats.Add(c.hIntrDeferred, 1)
				return
			}
			if c.prePtr < c.rob.len() {
				c.squashFrom(c.rob.at(c.prePtr).seq, true)
				c.flushes++
			}
			c.dqClear()
			c.interruptFlushed = true
		}
		if c.rob.len() == 0 {
			c.fetchPC = c.archPC
			c.interruptFlushed = false
			c.serveInterrupt()
		}
	}
}

func (c *CPU) serveInterrupt() {
	c.pendingInterrupt = false
	c.interrupts++
	hold := c.cycle + uint64(c.cfg.InterruptCost)
	if hold > c.fetchHold {
		c.fetchHold = hold
	}
}
