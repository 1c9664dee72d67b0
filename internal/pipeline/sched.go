package pipeline

// The event-driven scheduler. The scan reference (scan.go) re-walks the
// ROB, the inflight set, and the store queue every cycle, making simulation
// cost O(window × cycles). This file replaces those walks with O(events)
// structures while producing bit-identical simulations (the equivalence is
// enforced against the scan scheduler by TestSchedulerEquivalence):
//
//   - register wakeup lists: rename enqueues a uop on the wait list of each
//     not-yet-ready source ptag; writeback wakes the list into per-FU,
//     seq-ordered ready heaps, so issueStage pops candidates instead of
//     scanning the ROB;
//   - a completion timing wheel: issued uops are bucketed by doneAt modulo
//     the wheel size (far completions park in an overflow list migrated
//     once per wheel revolution), so completeStage pops one bucket instead
//     of filtering and sorting the whole inflight set;
//   - indexed store-queue search: a first-unissued-store cursor makes the
//     loadMayIssue ordering check O(1), and an EA-hashed intrusive chain
//     over issued stores makes forwardFrom O(1) amortized; STD capture is
//     driven off wakeup events instead of a full SQ sweep;
//   - uop slab: every in-flight uop lives in one contiguous fixed-capacity
//     arena; committed and squashed uops recycle through an index free
//     list, so steady-state simulation performs no per-instruction
//     allocation and cross-structure references are pointer-free slab
//     indices the garbage collector never scans.
//
// Squash safety uses lazy invalidation instead of unlink surgery: every
// cross-structure reference is a schedRef carrying the uop's generation at
// registration time, and recycling a uop bumps its generation, so stale
// entries in wait lists, ready heaps, wheel slots, stall lists, or the
// capture queue are recognized and dropped wherever they next surface.
// Processing order inside every stage is ascending seq (heaps pop the
// global minimum; wheel buckets and capture batches sort before firing), so
// the release engine observes the exact event order of the scan scheduler —
// which matters, because free lists are LIFO and release order decides
// which ptag a later rename draws.

import (
	"slices"

	"atr/internal/core"
	"atr/internal/isa"
	"atr/internal/program"
)

const (
	// wheelSize is the completion-wheel horizon in cycles (power of two).
	// Latencies beyond it (MSHR-deferred DRAM fills) park in the overflow
	// list, which is visited once per wheelSize cycles.
	wheelSize = 1024
	wheelMask = wheelSize - 1

	// fwdBuckets sizes the store-forwarding hash (power of two, a few
	// times the store-queue capacity so chains stay short).
	fwdBuckets = 256
	fwdMask    = fwdBuckets - 1
)

// schedRef is a generation-tagged reference to a slab-resident uop. It is
// pointer-free — a slab index plus the uop's generation at registration —
// so the heaps, wheel slots, and stall lists that hold schedRefs are
// invisible to the garbage collector and their writes pay no write barrier.
// seq is copied at registration so ordering never reads recycled memory.
type schedRef struct {
	seq uint64
	idx int32
	gen uint32
}

func (u *uop) ref() schedRef { return schedRef{seq: u.seq, idx: u.idx, gen: u.gen} }

// deref resolves a reference, returning nil if the uop was recycled since
// the reference was taken.
func (s *evsched) deref(r schedRef) *uop {
	u := &s.slab[r.idx]
	if u.gen != r.gen {
		return nil
	}
	return u
}

// waitEnt is one wakeup-list entry: a uop waiting on a physical register.
type waitEnt struct {
	idx  int32
	gen  uint32
	data bool // store STD source (arms capture) rather than an issue gate
}

// readyHeap is a seq-keyed min-heap of issue candidates for one FU kind.
type readyHeap []schedRef

func (h *readyHeap) push(e schedRef) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].seq <= a[i].seq {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

// peek returns the oldest live entry, discarding stale (recycled) tops.
func (h *readyHeap) peek(s *evsched) (schedRef, bool) {
	for len(*h) > 0 {
		if e := (*h)[0]; s.slab[e.idx].gen == e.gen {
			return e, true
		}
		h.pop()
	}
	return schedRef{}, false
}

func (h *readyHeap) pop() schedRef {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = schedRef{}
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && a[l].seq < a[m].seq {
			m = l
		}
		if r < n && a[r].seq < a[m].seq {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// fuIndex maps an op to its ready-heap: 0 = ALU, 1 = load, 2 = store.
func fuIndex(op isa.Op) int {
	switch op.FU() {
	case isa.FULoad:
		return 1
	case isa.FUStore:
		return 2
	default:
		return 0
	}
}

// evsched holds the event-driven scheduler state of one CPU.
type evsched struct {
	// waiters[class][ptag] is the wakeup list of that physical register.
	waiters [isa.NumClasses][][]waitEnt

	// ready holds issue candidates per FU kind (see fuIndex).
	ready [3]readyHeap

	// wheel buckets pending completions by cycle; overflow holds
	// completions beyond the horizon, migrated every wheelSize cycles.
	wheel    [wheelSize][]schedRef
	overflow []schedRef
	pending  int // scheduled completions not yet fired

	// capQ holds issued stores whose STD data became capturable; capBuf
	// is the reusable sort scratch.
	capQ   []schedRef
	capBuf []schedRef

	// doneBuf is the reusable completion-batch scratch.
	doneBuf []schedRef

	// fwd is a fixed-size open hash over issued stores' effective
	// addresses, chained intrusively through uop.fwdNext slab indices
	// (-1 terminates).
	fwd [fwdBuckets]int32

	// sqFirst indexes c.sq at the oldest unissued store (len(c.sq) when
	// every store has issued): the O(1) loadMayIssue cursor.
	sqFirst int

	// slab is the uop arena: one contiguous, fixed-capacity allocation
	// holding every in-flight uop, with freeIdx the index free list. The
	// slab never grows, so *uop pointers into it stay valid for a uop's
	// whole flight; schedRefs address it by index. Capacity is exact —
	// a uop is always in the decode queue or the ROB — so exhaustion is
	// an accounting bug, not a sizing problem.
	slab    []uop
	freeIdx []int32
}

func newEvsched(npregs, slabCap int) *evsched {
	s := &evsched{
		slab:    make([]uop, slabCap),
		freeIdx: make([]int32, slabCap),
	}
	for i := range s.slab {
		s.slab[i].idx = int32(i)
		s.slab[i].fwdNext = -1
		s.freeIdx[i] = int32(slabCap - 1 - i)
	}
	for i := range s.fwd {
		s.fwd[i] = -1
	}
	for cl := range s.waiters {
		s.waiters[cl] = make([][]waitEnt, npregs)
	}
	// Pre-size the wheel buckets from one backing array so steady state is
	// reached without a growth phase re-allocating each slot a few times.
	const slotCap = 8
	backing := make([]schedRef, wheelSize*slotCap)
	for i := range s.wheel {
		s.wheel[i] = backing[i*slotCap : i*slotCap : (i+1)*slotCap][:0]
	}
	return s
}

// getUop returns a zeroed slab uop. The slab index, the generation, and the
// capacity of the per-uop slices survive the reset. The slot is zeroed in
// place and the survivors written back, because a literal with fields set is
// built on the stack and then copied in: one whole-uop copy per fetch.
func (s *evsched) getUop() *uop {
	n := len(s.freeIdx) - 1
	if n < 0 {
		panic("pipeline: uop slab exhausted (in-flight uops exceed decode queue + ROB)")
	}
	i := s.freeIdx[n]
	s.freeIdx = s.freeIdx[:n]
	u := &s.slab[i]
	gen := u.gen
	si, sd := u.stallIssue[:0], u.stallData[:0]
	ras := u.pred.Checkpoint.RAS[:0]
	*u = uop{}
	u.idx, u.gen, u.fwdNext = i, gen, -1
	u.stallIssue, u.stallData = si, sd
	u.pred.Checkpoint.RAS = ras
	return u
}

// putUop recycles u; bumping the generation invalidates every schedRef and
// waitEnt still pointing at it.
func (s *evsched) putUop(u *uop) {
	u.gen++
	s.freeIdx = append(s.freeIdx, u.idx)
}

func (s *evsched) addWaiter(a core.Alloc, u *uop, data bool) {
	s.waiters[a.Class][a.Tag] = append(s.waiters[a.Class][a.Tag], waitEnt{idx: u.idx, gen: u.gen, data: data})
}

func (s *evsched) pushReady(u *uop) {
	s.ready[fuIndex(u.inst.Op)].push(u.ref())
}

// onRename registers u's not-yet-ready sources on their wakeup lists and
// pushes immediately-ready uops into the ready heaps. A store's STD source
// (slot 1) arms data capture instead of gating issue, mirroring srcsReady.
func (c *CPU) onRename(u *uop) {
	s := c.ev
	for i := 0; i < isa.MaxSrcs; i++ {
		if !u.inst.Srcs[i].Valid() {
			continue
		}
		a := u.ren.Srcs[i]
		if u.isStore() && i == 1 {
			if c.ready[a.Class][a.Tag] {
				u.stSrcRdy = true
			} else {
				s.addWaiter(a, u, true)
			}
			continue
		}
		if !c.ready[a.Class][a.Tag] {
			u.waitCnt++
			s.addWaiter(a, u, false)
		}
	}
	if u.isStore() && !u.inst.Srcs[1].Valid() {
		u.stSrcRdy = true // no STD source: the stored value is constant 0
	}
	if u.waitCnt == 0 {
		s.pushReady(u)
	}
}

// wake drains the wakeup list of a newly written register. A live waiter's
// source ptag can never have been freed and reallocated (the engine's
// consumer counting keeps a register alive while issue is pending), so a
// generation match is the only staleness that can occur.
func (c *CPU) wake(a core.Alloc) {
	s := c.ev
	list := s.waiters[a.Class][a.Tag]
	if len(list) == 0 {
		return
	}
	for _, w := range list {
		u := &s.slab[w.idx]
		if u.gen != w.gen {
			continue // squashed and recycled since registration
		}
		if w.data {
			u.stSrcRdy = true
			if u.issued && !u.stDataRdy {
				s.capQ = append(s.capQ, u.ref())
			}
			continue
		}
		if u.waitCnt--; u.waitCnt == 0 {
			s.pushReady(u)
		}
	}
	s.waiters[a.Class][a.Tag] = list[:0]
}

// schedule buckets u for completion. A doneAt at or before the current
// cycle fires next cycle, exactly when the scan scheduler would first see
// it (its completion phase for this cycle has already run).
func (s *evsched) schedule(u *uop, cycle uint64) {
	at := u.doneAt
	if at <= cycle {
		at = cycle + 1
	}
	if at-cycle < wheelSize {
		s.wheel[at&wheelMask] = append(s.wheel[at&wheelMask], u.ref())
	} else {
		s.overflow = append(s.overflow, u.ref())
	}
	s.pending++
}

// migrate moves overflow completions that now fall inside the wheel horizon
// into their slots; called once per wheel revolution, always before any of
// the migrated slots can fire.
func (s *evsched) migrate(cycle uint64) {
	n := 0
	for _, e := range s.overflow {
		u := s.deref(e)
		if u == nil {
			s.pending--
			continue
		}
		if d := u.doneAt; d-cycle < wheelSize {
			s.wheel[d&wheelMask] = append(s.wheel[d&wheelMask], e)
		} else {
			s.overflow[n] = e
			n++
		}
	}
	clear(s.overflow[n:])
	s.overflow = s.overflow[:n]
}

// onIssue hooks issue for the event scheduler: schedule the completion, and
// for stores advance the unissued cursor, index the address for forwarding,
// wake loads stalled on this address, and arm data capture (next cycle's
// capture phase, matching the scan scheduler's phase order).
func (c *CPU) onIssue(u *uop) {
	s := c.ev
	s.schedule(u, c.cycle)
	if !u.isStore() {
		return
	}
	s.fwdInsert(u)
	for s.sqFirst < len(c.sq) && c.sq[s.sqFirst].issued {
		s.sqFirst++
	}
	for _, r := range u.stallIssue {
		if w := s.deref(r); w != nil {
			s.pushReady(w)
		}
	}
	u.stallIssue = u.stallIssue[:0]
	if u.stSrcRdy {
		s.capQ = append(s.capQ, u.ref())
	}
}

// ------------------------------------------------- store-forwarding index

func fwdIndex(ea uint64) int { return int(program.Mix(ea) & fwdMask) }

func (s *evsched) fwdInsert(u *uop) {
	i := fwdIndex(u.ea)
	u.fwdNext = s.fwd[i]
	s.fwd[i] = u.idx
}

func (s *evsched) fwdRemove(u *uop) {
	i := fwdIndex(u.ea)
	if s.fwd[i] == u.idx {
		s.fwd[i] = u.fwdNext
		u.fwdNext = -1
		return
	}
	for j := s.fwd[i]; j >= 0; j = s.slab[j].fwdNext {
		if p := &s.slab[j]; p.fwdNext == u.idx {
			p.fwdNext = u.fwdNext
			u.fwdNext = -1
			return
		}
	}
}

// fwdLookup returns the youngest store older than seq whose known address
// matches ea. The chain holds exactly the issued, uncommitted, unsquashed
// stores, so this matches the scan scheduler's forwardFrom.
func (s *evsched) fwdLookup(ea uint64, seq uint64) *uop {
	var match *uop
	for j := s.fwd[fwdIndex(ea)]; j >= 0; j = s.slab[j].fwdNext {
		st := &s.slab[j]
		if st.ea == ea && st.seq < seq && (match == nil || st.seq > match.seq) {
			match = st
		}
	}
	return match
}

// ---------------------------------------------------------- event stages

func cmpSeq(a, b schedRef) int {
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// evCompleteStage fires this cycle's wheel bucket: writebacks oldest first,
// then misprediction recovery, exactly like the scan reference.
func (c *CPU) evCompleteStage() {
	s := c.ev
	if c.cycle&wheelMask == 0 {
		s.migrate(c.cycle)
	}
	slot := c.cycle & wheelMask
	bucket := s.wheel[slot]
	if len(bucket) == 0 {
		return
	}
	c.acts++
	buf := s.doneBuf[:0]
	for _, e := range bucket {
		s.pending--
		if s.deref(e) != nil {
			buf = append(buf, e)
		}
	}
	s.wheel[slot] = bucket[:0]
	slices.SortFunc(buf, cmpSeq)
	s.doneBuf = buf
	for _, e := range buf {
		u := s.deref(e)
		if u == nil {
			continue // squashed by an older recovery this same cycle
		}
		c.writeback(u)
		if u.inst.Op.IsControl() && u.actualNext != u.predNext {
			u.mispredict = true
			c.recoverFrom(u)
		}
	}
}

// evCaptureStoreData drains the capture queue: issued stores whose STD
// source became ready (or is constant) latch their data oldest first, then
// wake loads stalled on that data.
func (c *CPU) evCaptureStoreData() {
	s := c.ev
	if len(s.capQ) == 0 {
		return
	}
	buf := append(s.capBuf[:0], s.capQ...)
	s.capQ = s.capQ[:0]
	slices.SortFunc(buf, cmpSeq)
	s.capBuf = buf
	for _, e := range buf {
		u := s.deref(e)
		if u == nil || u.stDataRdy {
			continue
		}
		c.acts++
		if !u.inst.Srcs[1].Valid() {
			u.stDataRdy = true
			u.out.StoreVal = 0
		} else {
			a := u.ren.Srcs[1]
			u.stData = c.vals[a.Class][a.Tag]
			u.out.StoreVal = u.stData
			u.stDataRdy = true
			c.Engine.ConsumerIssued(a, c.cycle)
			c.srcReads++
		}
		for _, r := range u.stallData {
			if w := s.deref(r); w != nil {
				s.pushReady(w)
			}
		}
		u.stallData = u.stallData[:0]
	}
}

// evLoadBlocker returns the oldest unissued store older than u (whose issue
// u must wait for), or nil when the ordering check passes.
func (c *CPU) evLoadBlocker(u *uop) *uop {
	if c.mut == mutSkipOrderingCheck {
		return nil
	}
	if i := c.ev.sqFirst; i < len(c.sq) {
		if st := c.sq[i]; st.seq < u.seq {
			return st
		}
	}
	return nil
}

// evIssueStage pops ready uops in global seq order, respecting the issue
// width and per-FU port budgets. Loads failing the memory-ordering check
// park on the blocking store's stallIssue list (re-entering the heaps the
// moment that store issues, possibly later this same pass); loads whose
// forwarding match lacks data park on the match's stallData list. Neither
// consumes issue bandwidth, matching the scan scheduler's skip semantics.
func (c *CPU) evIssueStage() {
	s := c.ev
	aluLeft := c.cfg.NumALU
	loadLeft := c.cfg.NumLoadPorts
	storeLeft := c.cfg.NumStorePorts
	for left := c.cfg.IssueWidth; left > 0; {
		kind := -1
		var bestSeq uint64
		if aluLeft > 0 {
			if e, ok := s.ready[0].peek(s); ok {
				kind, bestSeq = 0, e.seq
			}
		}
		if loadLeft > 0 {
			if e, ok := s.ready[1].peek(s); ok && (kind < 0 || e.seq < bestSeq) {
				kind, bestSeq = 1, e.seq
			}
		}
		if storeLeft > 0 {
			if e, ok := s.ready[2].peek(s); ok && (kind < 0 || e.seq < bestSeq) {
				kind, bestSeq = 2, e.seq
			}
		}
		if kind < 0 {
			return
		}
		u := &s.slab[s.ready[kind].pop().idx]
		c.acts++
		if kind == 1 {
			if blk := c.evLoadBlocker(u); blk != nil {
				blk.stallIssue = append(blk.stallIssue, u.ref())
				continue
			}
			a := u.ren.Srcs[0]
			ea := program.EffAddr(u.inst, c.vals[a.Class][a.Tag])
			if m := c.forwardStall(u, ea); m != nil {
				m.stallData = append(m.stallData, u.ref())
				continue
			}
		}
		c.issue(u)
		left--
		switch kind {
		case 0:
			aluLeft--
		case 1:
			loadLeft--
		case 2:
			storeLeft--
		}
	}
}
