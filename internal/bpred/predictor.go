package bpred

import (
	"atr/internal/config"
	"atr/internal/isa"
)

// Checkpoint captures the speculative predictor state in effect before one
// control-flow instruction was predicted, so the frontend can rewind on a
// misprediction at that instruction.
type Checkpoint struct {
	Hist GlobalHistory
	RAS  []uint64
}

// BranchPrediction is the frontend's decision for one control instruction.
type BranchPrediction struct {
	Taken      bool   // predicted direction (always true for unconditional)
	Target     uint64 // predicted next PC when taken
	Tage       Prediction
	Checkpoint Checkpoint
	HasTarget  bool // false when an indirect target was unknown
	// UsedLoop/UsedSC record which component decided the direction, for
	// training.
	UsedLoop bool
	UsedSC   bool
}

// Predictor bundles the frontend prediction structures (the full Table 1
// "TAGE-SC-L": TAGE, statistical corrector, loop predictor) and applies the
// speculative-update / resolve-time-train protocol the pipeline relies on.
type Predictor struct {
	Tage     *TAGE
	Loop     *LoopPredictor
	SC       *Corrector
	Indirect *Indirect
	RAS      *RAS

	condLookups uint64
	condWrong   uint64
	indLookups  uint64
	indWrong    uint64
}

// New creates a predictor sized from the machine configuration.
func New(cfg config.Config) *Predictor {
	return &Predictor{
		Tage: NewTAGE(TAGEConfig{
			TableBits: cfg.TageTableBits,
			NumTables: cfg.TageTables,
			MaxHist:   cfg.TageHistLen,
		}),
		Loop:     NewLoopPredictor(64),
		SC:       NewCorrector(1024),
		Indirect: NewIndirect(cfg.IBTBEntries, cfg.BTBEntries),
		RAS:      NewRAS(cfg.RASEntries),
	}
}

// Predict produces the prediction for the control instruction in at pc and
// speculatively updates history and RAS. Non-control instructions must not
// be passed here.
func (p *Predictor) Predict(in *isa.Inst, pc uint64) BranchPrediction {
	var bp BranchPrediction
	p.PredictInto(in, pc, &bp)
	return bp
}

// PredictInto is Predict with caller-owned checkpoint storage: the RAS
// snapshot reuses bp's existing Checkpoint.RAS backing array (grown only
// when the stack outgrew it), so callers that pool their prediction records
// allocate nothing in steady state. bp is fully overwritten.
func (p *Predictor) PredictInto(in *isa.Inst, pc uint64, bp *BranchPrediction) {
	ras := p.RAS.AppendSnapshot(bp.Checkpoint.RAS[:0])
	*bp = BranchPrediction{
		Checkpoint: Checkpoint{Hist: p.Tage.History().Snapshot(), RAS: ras},
		HasTarget:  true,
	}
	switch in.Op {
	case isa.OpBranch:
		bp.Tage = p.Tage.Predict(pc)
		bp.Taken = bp.Tage.Taken
		// Component hierarchy: a confident loop entry overrides TAGE;
		// otherwise the statistical corrector may veto it.
		if lt, override := p.Loop.Predict(pc); override {
			bp.Taken = lt
			bp.UsedLoop = true
		} else if p.SC.Veto(pc, &bp.Checkpoint.Hist, bp.Taken) {
			bp.Taken = !bp.Taken
			bp.UsedSC = true
		}
		bp.Target = in.Target
		p.Tage.push(&p.Tage.hist, bp.Taken)
		p.condLookups++
	case isa.OpJump:
		bp.Taken = true
		bp.Target = in.Target
	case isa.OpCall:
		bp.Taken = true
		bp.Target = in.Target
		p.RAS.Push(pc + 1)
	case isa.OpJumpInd, isa.OpCallInd:
		bp.Taken = true
		tgt, ok := p.Indirect.Predict(pc, &bp.Checkpoint.Hist)
		bp.Target, bp.HasTarget = tgt, ok
		if !ok {
			bp.Target = pc + 1 // fall-through guess; will mispredict
		}
		if in.Op == isa.OpCallInd {
			p.RAS.Push(pc + 1)
		}
		p.indLookups++
	case isa.OpRet:
		bp.Taken = true
		tgt, ok := p.RAS.Pop()
		bp.Target, bp.HasTarget = tgt, ok
		if !ok {
			bp.Target = pc + 1
		}
		p.indLookups++
	default:
		panic("bpred: Predict called on non-control op " + in.Op.String())
	}
}

// Resolve trains the predictor with the actual outcome of a previously
// predicted control instruction. mispredicted reports whether the frontend
// must be redirected; if so the caller must also call Recover with the
// prediction's checkpoint.
func (p *Predictor) Resolve(in *isa.Inst, pc uint64, bp *BranchPrediction, taken bool, target uint64) (mispredicted bool) {
	switch in.Op {
	case isa.OpBranch:
		mispredicted = taken != bp.Taken
		if mispredicted {
			p.condWrong++
		}
		p.Loop.Update(pc, taken, bp.UsedLoop, bp.Taken)
		p.SC.Update(pc, &bp.Checkpoint.Hist, taken)
		// Train with the history in effect at prediction time.
		cur := p.Tage.History().Snapshot()
		p.Tage.History().Restore(bp.Checkpoint.Hist)
		p.Tage.Update(pc, bp.Tage, taken)
		if !mispredicted {
			// Keep the (correct) speculative history, which may
			// already include younger branches. On a mispredict the
			// caller recovers via Recover, which rewrites history.
			p.Tage.History().Restore(cur)
		}
	case isa.OpJumpInd, isa.OpCallInd, isa.OpRet:
		mispredicted = target != bp.Target || !bp.HasTarget
		if mispredicted {
			p.indWrong++
		}
		if in.Op != isa.OpRet {
			p.Indirect.Update(pc, &bp.Checkpoint.Hist, target)
		}
	case isa.OpJump, isa.OpCall:
		// Direct unconditional: never mispredicts.
	}
	return mispredicted
}

// Recover rewinds the speculative structures to the state right after the
// mispredicted instruction at pc executed with its actual outcome. Call it
// after Resolve, before redirecting fetch.
func (p *Predictor) Recover(in *isa.Inst, pc uint64, bp *BranchPrediction, taken bool) {
	p.RAS.Restore(bp.Checkpoint.RAS)
	h := bp.Checkpoint.Hist
	switch in.Op {
	case isa.OpBranch:
		p.Tage.push(&h, taken)
	case isa.OpCall, isa.OpCallInd:
		p.RAS.Push(pc + 1)
	case isa.OpRet:
		p.RAS.Pop()
	}
	p.Tage.History().Restore(h)
}

// CondAccuracy returns the conditional branch prediction accuracy so far.
func (p *Predictor) CondAccuracy() float64 {
	if p.condLookups == 0 {
		return 1
	}
	return 1 - float64(p.condWrong)/float64(p.condLookups)
}

// IndirectAccuracy returns the indirect target prediction accuracy so far.
func (p *Predictor) IndirectAccuracy() float64 {
	if p.indLookups == 0 {
		return 1
	}
	return 1 - float64(p.indWrong)/float64(p.indLookups)
}
