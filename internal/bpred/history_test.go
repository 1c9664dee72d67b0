package bpred

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"

	"atr/internal/config"
	"atr/internal/isa"
)

// checkFolds fails t unless every folded register of h, a history of tg,
// equals the oracle fold of h's shift register, and every reader's register
// is the one folding its (length, width) pair: tg's per-table index and tag
// folds, the corrector's features and the indirect index.
func checkFolds(t *testing.T, label string, h *GlobalHistory, tg *TAGE) {
	t.Helper()
	for i, r := range tg.foldRegs {
		n := bits.TrailingZeros64(r.leave) + 1
		if got, want := uint64(h.folds[i]), h.fold(n, int(r.width)); got != want {
			t.Fatalf("%s: register %d (len %d, width %d) = %#x, oracle %#x (bits %#x)",
				label, i, n, r.width, got, want, h.bits)
		}
	}
	read := func(reader string, reg uint8, histLen, width int) {
		t.Helper()
		if got, want := uint64(h.folds[reg]), h.fold(histLen, width); got != want {
			t.Fatalf("%s: %s reads %#x, oracle fold(%d, %d) = %#x", label, reader, got, histLen, width, want)
		}
	}
	for tbl, n := range tg.histLens {
		read(fmt.Sprintf("table %d index", tbl), tg.idxFold[tbl], n, tg.tblBits)
		read(fmt.Sprintf("table %d tag", tbl), tg.tagFold[tbl], n, tagWidth)
	}
	for i, n := range []int{6, 14, 28} {
		read(fmt.Sprintf("corrector feature %d", i), uint8(scFold+i), n, 12)
	}
	read("indirect index", indFold, 18, 16)
}

// TestFoldedHistoryMatchesOracle drives random sequences of history
// updates, snapshots, restores, speculative predictions and mispredict
// recoveries through a predictor, and after every step holds each folded
// register, and each reader's choice of register, to the recomputed fold.
func TestFoldedHistoryMatchesOracle(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"GoldenCove", func(*config.Config) {}},
		{"1 table", func(c *config.Config) { c.TageTables = 1 }},
		{"8 tables", func(c *config.Config) { c.TageTables = 8 }},
		{"hist 32", func(c *config.Config) { c.TageHistLen = 32 }},
		{"hist 512", func(c *config.Config) { c.TageHistLen = 512 }},
		{"4-bit tables", func(c *config.Config) { c.TageTableBits = 4 }},
		{"16-bit tables", func(c *config.Config) { c.TageTableBits = config.MaxTageTableBits }},
	}
	br := isa.NewInst(isa.OpBranch, nil, []isa.Reg{isa.Flags})
	br.Target = 7
	for _, v := range variants {
		cfg := config.GoldenCove()
		v.mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		rng := rand.New(rand.NewPCG(1, uint64(len(v.name))))
		p := New(cfg)
		var snaps []GlobalHistory
		var preds []BranchPrediction
		for step := 0; step < 20000; step++ {
			switch op := rng.IntN(6); {
			case op <= 1:
				p.Tage.push(p.Tage.History(), rng.IntN(2) == 0)
			case op == 2:
				snaps = append(snaps, p.Tage.History().Snapshot())
			case op == 3 && len(snaps) > 0:
				p.Tage.History().Restore(snaps[rng.IntN(len(snaps))])
			case op == 4:
				var bp BranchPrediction
				p.PredictInto(&br, uint64(rng.IntN(1<<12)), &bp)
				preds = append(preds, bp)
			case op == 5 && len(preds) > 0:
				bp := &preds[rng.IntN(len(preds))]
				p.Recover(&br, 0, bp, !bp.Taken)
			}
			checkFolds(t, fmt.Sprintf("%s step %d", v.name, step), p.Tage.History(), p.Tage)
		}
		for i := range preds {
			checkFolds(t, fmt.Sprintf("%s checkpoint %d", v.name, i), &preds[i].Checkpoint.Hist, p.Tage)
		}
	}
}

// TestTAGEFoldRegistersShared pins the register count the shipped geometry
// needs: tables 4 and 5 (lengths 111 and 256) both clamp to the 64-bit
// register, so they share their index and tag folds, leaving 10 TAGE
// registers beside the 4 fixed ones.
func TestTAGEFoldRegistersShared(t *testing.T) {
	tg := New(config.GoldenCove()).Tage
	if got := len(tg.foldRegs); got != 14 {
		t.Errorf("GoldenCove history carries %d folded registers, want 14", got)
	}
	if tg.idxFold[4] != tg.idxFold[5] || tg.tagFold[4] != tg.tagFold[5] {
		t.Errorf("tables 4 and 5 (lengths %d, %d) fold the same 64 bits but read different registers",
			tg.histLens[4], tg.histLens[5])
	}
}

// TestNewTAGERejectsUnfoldableGeometry: a geometry beyond what the fixed
// register storage holds panics instead of folding into truncated storage.
func TestNewTAGERejectsUnfoldableGeometry(t *testing.T) {
	for _, cfg := range []TAGEConfig{
		{NumTables: config.MaxTageTables + 1},
		{TableBits: config.MaxTageTableBits + 1},
		{MaxHist: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTAGE(%+v) did not panic", cfg)
				}
			}()
			NewTAGE(cfg)
		}()
	}
}
