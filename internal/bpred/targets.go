package bpred

// BTB is a direct-mapped branch target buffer. In this simulator direct
// targets are statically known (as in trace-driven Scarab), so the BTB's
// modeled role is target storage for indirect transfers and hit/miss
// accounting.
type BTB struct {
	tags    []uint64
	targets []uint64
	mask    uint64
	hits    uint64
	misses  uint64
}

// NewBTB creates a BTB with the given number of entries (rounded down to a
// power of two, minimum 16).
func NewBTB(entries int) *BTB {
	n := 16
	for n*2 <= entries {
		n *= 2
	}
	return &BTB{
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		mask:    uint64(n - 1),
	}
}

// Lookup returns the stored target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	i := pc & b.mask
	if b.tags[i] == pc|1 { // |1 marks valid (PCs here are word indices)
		b.hits++
		return b.targets[i], true
	}
	b.misses++
	return 0, false
}

// Insert records pc -> target.
func (b *BTB) Insert(pc, target uint64) {
	i := pc & b.mask
	b.tags[i] = pc | 1
	b.targets[i] = target
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	total := b.hits + b.misses
	if total == 0 {
		return 0
	}
	return float64(b.hits) / float64(total)
}

// Indirect is an ITTAGE-lite indirect target predictor: a history-hashed
// table backed by a per-PC last-target table (the IBTB).
type Indirect struct {
	histTags    []uint64
	histTargets []uint64
	last        *BTB
	mask        uint64
}

// NewIndirect creates an indirect predictor with the given history-table and
// IBTB entry counts.
func NewIndirect(histEntries, ibtbEntries int) *Indirect {
	n := 16
	for n*2 <= histEntries {
		n *= 2
	}
	return &Indirect{
		histTags:    make([]uint64, n),
		histTargets: make([]uint64, n),
		last:        NewBTB(ibtbEntries),
		mask:        uint64(n - 1),
	}
}

// index hashes pc with the history's indirect fold, the 18 newest outcomes
// folded to 16 bits.
func (p *Indirect) index(pc uint64, hist *GlobalHistory) uint64 {
	return (pc ^ uint64(hist.folds[indFold])*0x9e37 ^ pc>>7) & p.mask
}

// Predict returns the predicted target for the indirect branch at pc under
// the current global history; ok is false when the predictor has never seen
// this branch.
func (p *Indirect) Predict(pc uint64, hist *GlobalHistory) (target uint64, ok bool) {
	i := p.index(pc, hist)
	if p.histTags[i] == pc|1 {
		return p.histTargets[i], true
	}
	return p.last.Lookup(pc)
}

// Update trains the predictor with the actual target, using the history in
// effect at prediction time.
func (p *Indirect) Update(pc uint64, hist *GlobalHistory, target uint64) {
	i := p.index(pc, hist)
	p.histTags[i] = pc | 1
	p.histTargets[i] = target
	p.last.Insert(pc, target)
}

// RAS is the return address stack. It is speculatively updated at fetch and
// snapshot/restored on misprediction recovery.
type RAS struct {
	stack []uint64 // valid entries, oldest first; pushes drop the oldest when full
}

// NewRAS creates a RAS with n entries.
func NewRAS(n int) *RAS {
	if n < 1 {
		n = 1
	}
	return &RAS{stack: make([]uint64, 0, n)}
}

// Push records a return address at fetch of a call.
func (r *RAS) Push(addr uint64) {
	if len(r.stack) == cap(r.stack) {
		// Overflow: drop the oldest entry.
		copy(r.stack, r.stack[1:])
		r.stack[len(r.stack)-1] = addr
		return
	}
	r.stack = append(r.stack, addr)
}

// Pop predicts the target of a return. ok is false when empty (the frontend
// then has no prediction and must guess fall-through, which will mispredict).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	addr = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return addr, true
}

// Depth returns the number of valid entries.
func (r *RAS) Depth() int { return len(r.stack) }

// AppendSnapshot appends the RAS state to buf (reusing its capacity) and
// returns it, for misprediction recovery: pooled callers allocate nothing.
func (r *RAS) AppendSnapshot(buf []uint64) []uint64 {
	return append(buf, r.stack...)
}

// Restore rewinds to a snapshot.
func (r *RAS) Restore(s []uint64) {
	r.stack = r.stack[:0]
	r.stack = append(r.stack, s...)
}
