package bpred

import (
	"testing"

	"atr/internal/config"
	"atr/internal/isa"
)

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	l := NewLoopPredictor(64)
	pc := uint64(40)
	// 9 taken, 1 not-taken, repeated. After a few iterations the
	// predictor becomes confident and predicts the exit exactly.
	wrong := 0
	total := 0
	for iter := 0; iter < 40; iter++ {
		for i := 0; i < 10; i++ {
			taken := i < 9
			pred, override := l.Predict(pc)
			if iter >= 10 {
				total++
				if !override {
					wrong++ // expect confidence by now
				} else if pred != taken {
					wrong++
				}
			}
			l.Update(pc, taken, override, pred)
		}
	}
	if wrong != 0 {
		t.Errorf("confident loop predictor wrong %d/%d after warmup", wrong, total)
	}
	if acc := l.OverrideAccuracy(); acc < 0.99 {
		t.Errorf("override accuracy = %v", acc)
	}
}

func TestLoopPredictorRefusesIrregular(t *testing.T) {
	l := NewLoopPredictor(64)
	pc := uint64(80)
	// Irregular trip counts: 3, 7, 2, 9, ... confidence must not build.
	trips := []int{3, 7, 2, 9, 5, 4, 8, 6}
	for _, n := range trips {
		for i := 0; i <= n; i++ {
			taken := i < n
			_, override := l.Predict(pc)
			if override {
				t.Fatal("confident override on an irregular loop")
			}
			l.Update(pc, taken, false, false)
		}
	}
}

func TestLoopPredictorInvalidatesOnLongerStreak(t *testing.T) {
	l := NewLoopPredictor(64)
	pc := uint64(120)
	train := func(n int) {
		for i := 0; i <= n; i++ {
			pred, override := l.Predict(pc)
			l.Update(pc, i < n, override, pred)
		}
	}
	for i := 0; i < 8; i++ {
		train(5)
	}
	if _, override := l.Predict(pc); !override {
		t.Fatal("setup: predictor should be confident")
	}
	// The loop suddenly runs longer: the entry must lose confidence
	// rather than keep predicting the stale exit.
	train(12)
	if _, override := l.Predict(pc); override {
		t.Error("stale trip count kept confidence after a longer streak")
	}
}

func TestCorrectorLearnsHistoryCorrelation(t *testing.T) {
	c := NewCorrector(1024)
	pc := uint64(7)
	// Outcome equals the most recent history bit: TAGE's folded view may
	// miss it, but the corrector's short feature can learn it.
	tg := NewTAGE(TAGEConfig{})
	var h GlobalHistory
	for i := 0; i < 2000; i++ {
		taken := h.bits&1 == 1
		c.Update(pc, &h, taken)
		tg.push(&h, i%3 == 0) // drive the history independently
	}
	// After training, the corrector sum should follow the history bit.
	agree := 0
	total := 0
	for i := 0; i < 200; i++ {
		want := h.bits&1 == 1
		s := c.Sum(pc, &h)
		if s != 0 {
			total++
			if (s > 0) == want {
				agree++
			}
		}
		c.Update(pc, &h, want)
		tg.push(&h, i%3 == 0)
	}
	if total == 0 || float64(agree)/float64(total) < 0.7 {
		t.Errorf("corrector agreement %d/%d", agree, total)
	}
}

func TestCorrectorVetoMargin(t *testing.T) {
	c := NewCorrector(256)
	var h GlobalHistory
	pc := uint64(3)
	// Untrained: no veto either way.
	if c.Veto(pc, &h, true) || c.Veto(pc, &h, false) {
		t.Error("untrained corrector should not veto")
	}
	for i := 0; i < 10; i++ {
		c.Update(pc, &h, false) // strongly not-taken
	}
	if !c.Veto(pc, &h, true) {
		t.Error("trained corrector should veto a taken prediction")
	}
	if c.Veto(pc, &h, false) {
		t.Error("corrector agrees with not-taken; no veto")
	}
}

func TestPredictorLoopOverrideEndToEnd(t *testing.T) {
	p := New(config.GoldenCove())
	in := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	in.Target = 5
	pc := uint64(90)
	// A 30-iteration loop: beyond the bimodal's reach for the single
	// not-taken exit; the loop predictor should capture it.
	wrongLate := 0
	for iter := 0; iter < 30; iter++ {
		for i := 0; i < 31; i++ {
			taken := i < 30
			bp := p.Predict(&in, pc)
			if iter >= 20 && bp.Taken != taken {
				wrongLate++
			}
			mis := p.Resolve(&in, pc, &bp, taken, 5)
			if mis {
				p.Recover(&in, pc, &bp, taken)
			}
		}
	}
	// 10 trained iterations x 31 branches; allow a few residual misses.
	if wrongLate > 12 {
		t.Errorf("long-loop exit mispredicted %d times after warmup", wrongLate)
	}
}

func TestPredictorConfidenceExposed(t *testing.T) {
	p := New(config.GoldenCove())
	in := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	pc := uint64(200)
	bp := p.Predict(&in, pc)
	if bp.Tage.Confident {
		t.Error("cold prediction should be low-confidence")
	}
	for i := 0; i < 30; i++ {
		b := p.Predict(&in, pc)
		p.Resolve(&in, pc, &b, true, 0)
	}
	bp = p.Predict(&in, pc)
	if !bp.Tage.Confident {
		t.Error("well-trained always-taken branch should be confident")
	}
}
