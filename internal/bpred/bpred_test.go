package bpred

import (
	"testing"
	"testing/quick"

	"atr/internal/config"
	"atr/internal/isa"
)

// fold is the reference the folded history registers are held to: the low
// histLen bits of the history (clamped to historyBits) XOR-folded into width
// bits, recomputed from the shift register alone.
func (h *GlobalHistory) fold(histLen, width int) uint64 {
	if histLen > historyBits {
		histLen = historyBits
	}
	var masked uint64
	if histLen == 64 {
		masked = h.bits
	} else {
		masked = h.bits & (1<<uint(histLen) - 1)
	}
	var folded uint64
	for masked != 0 {
		folded ^= masked & (1<<uint(width) - 1)
		masked >>= uint(width)
	}
	return folded
}

// historyOf returns a history of tg that has shifted in the low n bits of
// bits, the highest first, so that its shift register reads bits.
func historyOf(tg *TAGE, bits uint64, n int) GlobalHistory {
	var h GlobalHistory
	for i := n - 1; i >= 0; i-- {
		tg.push(&h, bits>>uint(i)&1 == 1)
	}
	return h
}

func TestGlobalHistoryFold(t *testing.T) {
	h := historyOf(NewTAGE(TAGEConfig{}), 0b101, 3)
	if h.bits != 0b101 {
		t.Fatalf("bits = %b", h.bits)
	}
	if got := h.fold(3, 8); got != 0b101 {
		t.Errorf("fold(3,8) = %b, want 101", got)
	}
	// Folding a wide history XORs chunks.
	h2 := GlobalHistory{bits: 0xFF00}
	if got := h2.fold(16, 8); got != 0xFF {
		t.Errorf("fold(16,8) = %x, want ff", got)
	}
}

func TestHistorySnapshotRestore(t *testing.T) {
	tg := NewTAGE(TAGEConfig{})
	h := tg.History()
	tg.push(h, true)
	s := h.Snapshot()
	tg.push(h, false)
	tg.push(h, false)
	h.Restore(s)
	if h.bits != 1 {
		t.Errorf("restored bits = %b, want 1", h.bits)
	}
}

func TestTAGEHistLengthsGeometric(t *testing.T) {
	tg := NewTAGE(TAGEConfig{NumTables: 6, MaxHist: 256})
	if len(tg.histLens) != 6 {
		t.Fatalf("tables = %d", len(tg.histLens))
	}
	if tg.histLens[0] != 4 {
		t.Errorf("shortest = %d, want 4", tg.histLens[0])
	}
	if tg.histLens[5] != 256 {
		t.Errorf("longest = %d, want 256", tg.histLens[5])
	}
	for i := 1; i < 6; i++ {
		if tg.histLens[i] <= tg.histLens[i-1] {
			t.Errorf("lengths not increasing: %v", tg.histLens)
		}
	}
}

func TestTAGELearnsAlwaysTaken(t *testing.T) {
	tg := NewTAGE(TAGEConfig{})
	pc := uint64(100)
	wrong := 0
	for i := 0; i < 100; i++ {
		p := tg.Predict(pc)
		if !p.Taken {
			wrong++
		}
		tg.Update(pc, p, true)
	}
	if wrong > 3 {
		t.Errorf("always-taken branch mispredicted %d/100 times", wrong)
	}
}

func TestTAGELearnsAlternating(t *testing.T) {
	// T,N,T,N... requires history; bimodal alone cannot learn it.
	tg := NewTAGE(TAGEConfig{})
	pc := uint64(200)
	wrong := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		p := tg.Predict(pc)
		if p.Taken != taken {
			wrong++
		}
		tg.Update(pc, p, taken)
	}
	// After warmup the tagged tables should capture the pattern.
	if wrong > 400 {
		t.Errorf("alternating branch mispredicted %d/2000 times", wrong)
	}
}

func TestTAGELearnsLoopExit(t *testing.T) {
	// 7 taken then 1 not-taken, repeated: classic loop branch.
	tg := NewTAGE(TAGEConfig{})
	pc := uint64(300)
	wrong := 0
	total := 0
	for iter := 0; iter < 300; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			p := tg.Predict(pc)
			if iter >= 100 { // measure after warmup
				total++
				if p.Taken != taken {
					wrong++
				}
			}
			tg.Update(pc, p, taken)
		}
	}
	if frac := float64(wrong) / float64(total); frac > 0.10 {
		t.Errorf("loop branch mispredict rate %.2f after warmup, want <= 0.10", frac)
	}
}

func TestSaturate(t *testing.T) {
	c := int8(0)
	for i := 0; i < 10; i++ {
		c = saturate(c, true, 3)
	}
	if c != 3 {
		t.Errorf("saturated up to %d, want 3", c)
	}
	for i := 0; i < 20; i++ {
		c = saturate(c, false, 3)
	}
	if c != -4 {
		t.Errorf("saturated down to %d, want -4", c)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64)
	if _, ok := b.Lookup(10); ok {
		t.Error("empty BTB should miss")
	}
	b.Insert(10, 99)
	if tgt, ok := b.Lookup(10); !ok || tgt != 99 {
		t.Errorf("Lookup = %d,%v", tgt, ok)
	}
	// Conflicting entry evicts.
	b.Insert(10+64, 111)
	if _, ok := b.Lookup(10); ok {
		t.Error("conflicting insert should evict")
	}
	if b.HitRate() <= 0 || b.HitRate() >= 1 {
		t.Errorf("hit rate = %v", b.HitRate())
	}
}

func TestIndirectPredictorLearnsPerHistory(t *testing.T) {
	ind := NewIndirect(1024, 512)
	tg := NewTAGE(TAGEConfig{})
	h1, h2 := historyOf(tg, 0xAAAA, 16), historyOf(tg, 0x5555, 16)
	pc := uint64(50)
	ind.Update(pc, &h1, 111)
	ind.Update(pc, &h2, 222)
	if tgt, ok := ind.Predict(pc, &h1); !ok || tgt != 111 {
		t.Errorf("h1 predict = %d,%v want 111", tgt, ok)
	}
	if tgt, ok := ind.Predict(pc, &h2); !ok || tgt != 222 {
		t.Errorf("h2 predict = %d,%v want 222", tgt, ok)
	}
	// Unseen history falls back to last target (IBTB).
	h3 := historyOf(tg, 0x1234, 16)
	if tgt, ok := ind.Predict(pc, &h3); !ok || (tgt != 111 && tgt != 222) {
		t.Errorf("fallback predict = %d,%v", tgt, ok)
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS should report !ok")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // drops 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("top = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("next = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("oldest entry should have been dropped")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	s := r.AppendSnapshot(nil)
	r.Pop()
	r.Push(9)
	r.Push(10)
	r.Restore(s)
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("restored top = %d, want 2", got)
	}
}

func newTestPredictor() *Predictor {
	return New(config.GoldenCove())
}

func TestPredictorBranchFlow(t *testing.T) {
	p := newTestPredictor()
	in := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	in.Target = 40
	pc := uint64(10)
	// Train always-taken.
	for i := 0; i < 50; i++ {
		bp := p.Predict(&in, pc)
		mis := p.Resolve(&in, pc, &bp, true, 40)
		if mis {
			p.Recover(&in, pc, &bp, true)
		}
	}
	bp := p.Predict(&in, pc)
	if !bp.Taken || bp.Target != 40 {
		t.Errorf("after training: taken=%v target=%d", bp.Taken, bp.Target)
	}
	if acc := p.CondAccuracy(); acc < 0.9 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestPredictorCallRetFlow(t *testing.T) {
	p := newTestPredictor()
	call := isa.NewInst(isa.OpCall, []isa.Reg{isa.R14}, nil)
	call.Target = 100
	ret := isa.NewInst(isa.OpRet, nil, []isa.Reg{isa.R14})

	bp := p.Predict(&call, 5)
	if !bp.Taken || bp.Target != 100 {
		t.Fatalf("call prediction: %+v", bp)
	}
	rbp := p.Predict(&ret, 120)
	if rbp.Target != 6 {
		t.Errorf("ret predicted %d, want 6 (return address)", rbp.Target)
	}
	if mis := p.Resolve(&ret, 120, &rbp, true, 6); mis {
		t.Error("correct RAS prediction flagged as mispredict")
	}
}

func TestPredictorRetMispredictRecovery(t *testing.T) {
	p := newTestPredictor()
	ret := isa.NewInst(isa.OpRet, nil, []isa.Reg{isa.R14})
	// Empty RAS: prediction is a guess and must mispredict.
	bp := p.Predict(&ret, 50)
	if bp.HasTarget {
		t.Error("empty RAS should have no target")
	}
	if mis := p.Resolve(&ret, 50, &bp, true, 7); !mis {
		t.Error("wrong ret target must mispredict")
	}
	p.Recover(&ret, 50, &bp, true)
	if p.RAS.Depth() != 0 {
		t.Errorf("RAS depth after recovery = %d", p.RAS.Depth())
	}
}

func TestPredictorRecoveryRewindsWrongPathPushes(t *testing.T) {
	p := newTestPredictor()
	br := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	br.Target = 90
	call := isa.NewInst(isa.OpCall, []isa.Reg{isa.R14}, nil)
	call.Target = 200

	bp := p.Predict(&br, 10)
	// Wrong path: fetch a call that pushes the RAS.
	p.Predict(&call, 11)
	if p.RAS.Depth() != 1 {
		t.Fatalf("RAS depth = %d", p.RAS.Depth())
	}
	// The branch resolves mispredicted; recovery must pop wrong-path push.
	p.Resolve(&br, 10, &bp, !bp.Taken, 90)
	p.Recover(&br, 10, &bp, !bp.Taken)
	if p.RAS.Depth() != 0 {
		t.Errorf("wrong-path RAS push survived recovery: depth = %d", p.RAS.Depth())
	}
}

func TestPredictorIndirect(t *testing.T) {
	p := newTestPredictor()
	ji := isa.NewInst(isa.OpJumpInd, nil, []isa.Reg{isa.R0})
	ji.Targets = []uint64{70, 80}
	pc := uint64(33)
	// First encounter must mispredict (no target known).
	bp := p.Predict(&ji, pc)
	if bp.HasTarget {
		t.Error("first indirect lookup should have no target")
	}
	mis := p.Resolve(&ji, pc, &bp, true, 70)
	if !mis {
		t.Error("first indirect must mispredict")
	}
	p.Recover(&ji, pc, &bp, true)
	// Second encounter with same history: should hit.
	bp2 := p.Predict(&ji, pc)
	if !bp2.HasTarget || bp2.Target != 70 {
		t.Errorf("second lookup: %+v", bp2)
	}
}

func TestPredictPanicsOnNonControl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := newTestPredictor()
	in := isa.NewInst(isa.OpALU, []isa.Reg{isa.R0}, []isa.Reg{isa.R1})
	p.Predict(&in, 0)
}

// Property: fold output always fits in width bits.
func TestFoldWidthProperty(t *testing.T) {
	f := func(bits uint64, histLen, width uint8) bool {
		h := GlobalHistory{bits: bits}
		hl := int(histLen%64) + 1
		w := int(width%16) + 1
		return h.fold(hl, w) < 1<<uint(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RAS restore is exact regardless of interleaved operations.
func TestRASRestoreProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRAS(8)
		r.Push(11)
		r.Push(22)
		snap := r.AppendSnapshot(nil)
		for _, op := range ops {
			if op%2 == 0 {
				r.Push(uint64(op))
			} else {
				r.Pop()
			}
		}
		r.Restore(snap)
		if r.Depth() != 2 {
			return false
		}
		a, _ := r.Pop()
		b, _ := r.Pop()
		return a == 22 && b == 11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
