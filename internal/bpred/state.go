package bpred

import "atr/internal/isa"

// This file holds the warm-state side of sampled simulation: a functional
// warming entry point (Warm) that applies the exact net training effect of
// an in-order predict→resolve→recover sequence without building per-branch
// checkpoints, and CopyFrom, which hands that warm state (TAGE tables, loop
// predictor, statistical corrector, indirect tables, BTB, RAS, accuracy
// counters) to a fresh detailed pipeline. Together they let a sampling
// driver fast-forward millions of instructions while keeping the predictor
// state bit-equal to what a detailed frontend would have accumulated in
// order.

// CopyFrom overwrites p's mutable state with src's, sharing no backing
// array with it. Both predictors must be built from the same configuration:
// the geometry (masks, table sizes, history lengths) is not copied. A
// sampling driver calls it once per detail window to prime a fresh pipeline
// from its live warmer (TestCopyFromCoversEveryField classifies every
// field).
func (p *Predictor) CopyFrom(src *Predictor) {
	copy(p.Tage.base, src.Tage.base)
	for i := range src.Tage.tables {
		copy(p.Tage.tables[i], src.Tage.tables[i])
	}
	p.Tage.hist = src.Tage.hist
	copy(p.Loop.entries, src.Loop.entries)
	p.Loop.overrides, p.Loop.correct = src.Loop.overrides, src.Loop.correct
	for i := range src.SC.weights {
		copy(p.SC.weights[i], src.SC.weights[i])
	}
	copy(p.Indirect.histTags, src.Indirect.histTags)
	copy(p.Indirect.histTargets, src.Indirect.histTargets)
	copy(p.Indirect.last.tags, src.Indirect.last.tags)
	copy(p.Indirect.last.targets, src.Indirect.last.targets)
	p.Indirect.last.hits, p.Indirect.last.misses = src.Indirect.last.hits, src.Indirect.last.misses
	p.RAS.Restore(src.RAS.stack)
	p.condLookups, p.condWrong = src.condLookups, src.condWrong
	p.indLookups, p.indWrong = src.indLookups, src.indWrong
}

// Warm trains the predictor with the in-order outcome of one control
// instruction during functional fast-forward. It is the net effect of
// PredictInto → Resolve → (Recover on mispredict) for a branch that resolves
// before any younger branch is fetched, without the checkpoint bookkeeping:
// the speculative and architectural histories coincide in an in-order walk,
// so the pre-branch history is simply the current one.
func (p *Predictor) Warm(in *isa.Inst, pc uint64, taken bool, target uint64) {
	switch in.Op {
	case isa.OpBranch:
		pred := p.Tage.Predict(pc)
		dir := pred.Taken
		usedLoop := false
		if lt, override := p.Loop.Predict(pc); override {
			dir, usedLoop = lt, true
		} else if p.SC.Veto(pc, p.Tage.History(), pred.Taken) {
			dir = !dir
		}
		p.condLookups++
		if dir != taken {
			p.condWrong++
		}
		p.Loop.Update(pc, taken, usedLoop, dir)
		// SC and TAGE both train against the pre-branch history; TAGE's
		// Update shifts the actual outcome in afterwards, which is exactly
		// the history a correct in-order frontend would carry forward.
		p.SC.Update(pc, p.Tage.History(), taken)
		p.Tage.Update(pc, pred, taken)
	case isa.OpCall:
		p.RAS.Push(pc + 1)
	case isa.OpJumpInd, isa.OpCallInd:
		p.indLookups++
		tgt, ok := p.Indirect.Predict(pc, p.Tage.History())
		if !ok || tgt != target {
			p.indWrong++
		}
		p.Indirect.Update(pc, p.Tage.History(), target)
		if in.Op == isa.OpCallInd {
			p.RAS.Push(pc + 1)
		}
	case isa.OpRet:
		p.indLookups++
		tgt, ok := p.RAS.Pop()
		if !ok || tgt != target {
			p.indWrong++
		}
	case isa.OpJump:
		// Direct unconditional: no mutable state involved.
	}
}

// CondCounts returns the cumulative conditional lookup/mispredict counters.
func (p *Predictor) CondCounts() (lookups, wrong uint64) { return p.condLookups, p.condWrong }

// IndCounts returns the cumulative indirect lookup/mispredict counters.
func (p *Predictor) IndCounts() (lookups, wrong uint64) { return p.indLookups, p.indWrong }
