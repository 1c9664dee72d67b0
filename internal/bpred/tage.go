// Package bpred implements the frontend's prediction structures: a
// TAGE-style conditional branch predictor, a branch target buffer, an
// ITTAGE-lite indirect target predictor, and a return address stack. The
// paper's Table 1 configures "TAGE-SC-L + BPU enhancements"; this package
// implements the TAGE core with a bimodal base table and geometric history
// lengths, which is the component that determines misprediction behaviour at
// simulation fidelity.
package bpred

import (
	"fmt"
	"math"

	"atr/internal/config"
)

// historyBits is the size of the global history shift register; longer
// configured history lengths are clamped to it.
const historyBits = 64

// Every history carries the folds its readers index with, kept current by
// TAGE.push instead of recomputed at each read (the folded history
// registers of Seznec's TAGE). The first fixedFolds registers are the same
// for every geometry: the statistical corrector's features and the indirect
// index. NewTAGE appends an index and a tag register for each tagged table,
// sharing a register wherever two readers fold the same length to the same
// width.
const (
	scFold     = 0                     // first of the corrector's correctorFeatures registers
	indFold    = correctorFeatures     // the indirect predictor's register
	fixedFolds = correctorFeatures + 1 // registers every history carries
	maxFolds   = fixedFolds + 2*config.MaxTageTables
	// tagWidth is the width of a TAGE tag, and so of its tag fold.
	tagWidth = 12
)

// foldReg is the geometry of one folded-history register: the newest len
// history bits XOR-folded into width bits, chunk by chunk.
type foldReg struct {
	leave uint64 // 1<<(len-1): the history bit that leaves the window next
	drop  uint8  // how far right that bit moves to reach its fold position, (len-1) mod width
	width uint8  // 1..16, the width of a register
	mask  uint16 // width low bits
}

func newFoldReg(histLen, width int) foldReg {
	last := min(histLen, historyBits) - 1
	return foldReg{
		leave: 1 << last,
		drop:  uint8(last - last%width),
		width: uint8(width),
		mask:  uint16(1<<width - 1),
	}
}

// GlobalHistory is a shift register of recent conditional branch outcomes
// together with its folded registers, advanced by the TAGE that owns the
// register layout. It is a plain value: a snapshot is a copy that allocates
// nothing, which every in-flight branch keeps.
type GlobalHistory struct {
	bits  uint64
	folds [maxFolds]uint16 // folds[i] = fold of bits per the owning TAGE's foldRegs[i]
}

// Snapshot returns a copy for checkpoint/restore on speculative updates.
func (h *GlobalHistory) Snapshot() GlobalHistory { return *h }

// Restore rewinds the history to a snapshot (misprediction recovery).
func (h *GlobalHistory) Restore(s GlobalHistory) { *h = s }

// tageEntry is one tagged-table entry.
type tageEntry struct {
	tag    uint16
	ctr    int8  // signed counter: >=0 predicts taken
	useful uint8 // usefulness for replacement
}

// TAGE is a tagged geometric-history-length conditional branch predictor
// with a bimodal base table.
type TAGE struct {
	base     []int8 // bimodal base predictor (2-bit counters)
	baseBits int
	tables   [][]tageEntry
	tblBits  int
	histLens []int
	idxFold  []uint8   // per table: the history register its index folds
	tagFold  []uint8   // per table: the history register its tag folds
	foldRegs []foldReg // the registers every history of this TAGE carries
	hist     GlobalHistory
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseBits  int // log2 bimodal entries
	TableBits int // log2 entries per tagged table
	NumTables int
	MaxHist   int // longest history length; lengths follow a geometric series
}

// NewTAGE builds a predictor from cfg, applying sane defaults for zero
// fields. It panics on a geometry the folded history registers cannot hold
// (more than config.MaxTageTables tables, tables wider than
// config.MaxTageTableBits, a negative history length); config.Validate
// rejects those configurations.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if cfg.BaseBits == 0 {
		cfg.BaseBits = 12
	}
	if cfg.TableBits == 0 {
		cfg.TableBits = 10
	}
	if cfg.NumTables == 0 {
		cfg.NumTables = 6
	}
	if cfg.MaxHist == 0 {
		cfg.MaxHist = 256
	}
	if cfg.NumTables > config.MaxTageTables || cfg.TableBits > config.MaxTageTableBits || cfg.MaxHist < 0 {
		panic(fmt.Sprintf("bpred: TAGE geometry %+v exceeds the folded history registers", cfg))
	}
	t := &TAGE{
		base:     make([]int8, 1<<cfg.BaseBits),
		baseBits: cfg.BaseBits,
		tblBits:  cfg.TableBits,
	}
	// Geometric history lengths from 4 up to MaxHist.
	minHist := 4.0
	ratio := 1.0
	if cfg.NumTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/minHist, 1.0/float64(cfg.NumTables-1))
	}
	l := minHist
	t.foldRegs = []foldReg{
		scFold + 0: newFoldReg(6, 12),
		scFold + 1: newFoldReg(14, 12),
		scFold + 2: newFoldReg(28, 12),
		indFold:    newFoldReg(18, 16),
	}
	for i := 0; i < cfg.NumTables; i++ {
		n := int(l + 0.5)
		t.histLens = append(t.histLens, n)
		t.tables = append(t.tables, make([]tageEntry, 1<<cfg.TableBits))
		t.idxFold = append(t.idxFold, t.addFold(n, cfg.TableBits))
		t.tagFold = append(t.tagFold, t.addFold(n, tagWidth))
		l *= ratio
	}
	return t
}

// addFold returns the index of the register folding histLen bits into
// width, appending it unless an equal one exists.
func (t *TAGE) addFold(histLen, width int) uint8 {
	r := newFoldReg(histLen, width)
	for i, have := range t.foldRegs {
		if have == r {
			return uint8(i)
		}
	}
	t.foldRegs = append(t.foldRegs, r)
	return uint8(len(t.foldRegs) - 1)
}

// push shifts one outcome into h, a history of this TAGE, and advances
// every folded register in O(1): cancel the bit about to leave the history
// window, which the fold holds at (len-1) mod width, rotate the fold left
// by one within its width, and bring the outcome in at bit 0.
func (t *TAGE) push(h *GlobalHistory, taken bool) {
	var in uint64
	if taken {
		in = 1
	}
	bits := h.bits
	folds := h.folds[:len(t.foldRegs)]
	for i, r := range t.foldRegs {
		// Shift counts are below 64; masking them says so to the
		// compiler, which then emits a bare shift.
		f := uint64(folds[i]) ^ (bits&r.leave)>>(r.drop&63)
		f = f<<1 | in
		f ^= f >> (r.width & 63)
		folds[i] = uint16(f) & r.mask
	}
	h.bits = bits<<1 | in
}

func (t *TAGE) baseIndex(pc uint64) uint64 {
	return (pc ^ pc>>t.baseBits) & (1<<uint(t.baseBits) - 1)
}

func (t *TAGE) tableIndex(pc uint64, tbl int) uint64 {
	h := uint64(t.hist.folds[t.idxFold[tbl]])
	return (pc ^ pc>>uint(t.tblBits) ^ h ^ uint64(tbl)*0x9e37) & (1<<uint(t.tblBits) - 1)
}

func (t *TAGE) tableTag(pc uint64, tbl int) uint16 {
	h := uint64(t.hist.folds[t.tagFold[tbl]])
	return uint16((pc>>2 ^ h ^ uint64(tbl)<<7) & 0xFFF)
}

// Prediction carries the provider metadata needed for the update.
type Prediction struct {
	Taken bool
	// Confident is set when the providing counter is well away from the
	// decision boundary; low-confidence branches are the ones worth an
	// SRT checkpoint (§4.2.1 checkpoints low-confidence branches only).
	Confident bool
	provider  int // -1 = base table
	altTaken  bool
	idx       uint64
	tag       uint16
	baseIdx   uint64
}

// Predict returns the direction prediction for the conditional branch at pc.
func (t *TAGE) Predict(pc uint64) Prediction {
	p := Prediction{provider: -1}
	p.baseIdx = t.baseIndex(pc)
	baseCtr := t.base[p.baseIdx]
	basePred := baseCtr >= 0
	p.Taken, p.altTaken = basePred, basePred
	p.Confident = baseCtr >= 1 || baseCtr <= -2
	for i := len(t.tables) - 1; i >= 0; i-- {
		idx := t.tableIndex(pc, i)
		e := &t.tables[i][idx]
		if e.tag != t.tableTag(pc, i) {
			continue
		}
		if p.provider == -1 {
			// Longest matching table provides the prediction.
			p.provider = i
			p.idx = idx
			p.tag = e.tag
			p.Taken = e.ctr >= 0
			p.Confident = e.ctr >= 1 || e.ctr <= -2
			p.altTaken = basePred
		} else {
			// Next-longest match supplies the alternate prediction.
			p.altTaken = e.ctr >= 0
			break
		}
	}
	return p
}

// Update trains the predictor with the actual outcome of the branch at pc,
// using the metadata captured at prediction time, and shifts the outcome
// into the global history.
func (t *TAGE) Update(pc uint64, pred Prediction, taken bool) {
	// Train the provider (or base).
	if pred.provider >= 0 {
		e := &t.tables[pred.provider][pred.idx]
		if e.tag == pred.tag {
			e.ctr = saturate(e.ctr, taken, 3)
			if pred.Taken != pred.altTaken {
				if pred.Taken == taken && e.useful < 3 {
					e.useful++
				} else if pred.Taken != taken && e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		t.base[pred.baseIdx] = saturate(t.base[pred.baseIdx], taken, 1)
	}
	// On a misprediction, allocate in a longer-history table.
	if pred.Taken != taken {
		start := pred.provider + 1
		allocated := false
		for i := start; i < len(t.tables); i++ {
			idx := t.tableIndex(pc, i)
			e := &t.tables[i][idx]
			if e.useful == 0 {
				e.tag = t.tableTag(pc, i)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Age usefulness to guarantee eventual allocation.
			for i := start; i < len(t.tables); i++ {
				idx := t.tableIndex(pc, i)
				if e := &t.tables[i][idx]; e.useful > 0 {
					e.useful--
				}
			}
		}
	}
	t.push(&t.hist, taken)
}

// History exposes the global history for checkpointing.
func (t *TAGE) History() *GlobalHistory { return &t.hist }

// saturate moves a signed counter toward taken/not-taken within [-lim-1, lim].
func saturate(c int8, taken bool, lim int8) int8 {
	if taken {
		if c < lim {
			return c + 1
		}
		return c
	}
	if c > -lim-1 {
		return c - 1
	}
	return c
}
