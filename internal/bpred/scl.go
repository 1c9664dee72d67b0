package bpred

// This file completes the Table 1 predictor ("TAGE-SC-L"): the L is a loop
// predictor that captures branches with long regular trip counts beyond the
// TAGE history reach, and the SC is a small statistical corrector that
// vetoes the TAGE output when its own perceptron-style sum disagrees
// strongly. Both follow Seznec's championship designs in miniature.

// loopEntry tracks one candidate loop branch.
type loopEntry struct {
	tag       uint16
	tripCount uint16 // learned iterations between not-taken outcomes
	current   uint16 // taken streak so far
	conf      uint8  // confidence: prediction used once >= loopConfMin
	valid     bool
}

// loopConfMin is the confidence threshold before the loop predictor
// overrides TAGE.
const loopConfMin = 3

// LoopPredictor learns fixed trip counts: a branch taken exactly N times
// then not-taken once, repeatedly.
type LoopPredictor struct {
	entries []loopEntry
	mask    uint64

	overrides uint64
	correct   uint64
}

// NewLoopPredictor creates a predictor with entries rounded down to a power
// of two (minimum 16).
func NewLoopPredictor(entries int) *LoopPredictor {
	n := 16
	for n*2 <= entries {
		n *= 2
	}
	return &LoopPredictor{entries: make([]loopEntry, n), mask: uint64(n - 1)}
}

func (l *LoopPredictor) entry(pc uint64) *loopEntry {
	return &l.entries[(pc^pc>>7)&l.mask]
}

func tagOf(pc uint64) uint16 { return uint16(pc>>3&0x3FF) | 1 }

// Predict returns (taken, override): override is set only when the entry is
// confident, in which case taken should replace the TAGE direction.
func (l *LoopPredictor) Predict(pc uint64) (taken, override bool) {
	e := l.entry(pc)
	if !e.valid || e.tag != tagOf(pc) || e.conf < loopConfMin {
		return false, false
	}
	// Predict not-taken exactly at the learned trip count.
	return e.current < e.tripCount, true
}

// Update trains the entry with the actual outcome.
func (l *LoopPredictor) Update(pc uint64, taken, usedOverride, overridePred bool) {
	e := l.entry(pc)
	if usedOverride {
		l.overrides++
		if overridePred == taken {
			l.correct++
		}
	}
	if !e.valid || e.tag != tagOf(pc) {
		// Allocate on a not-taken outcome (potential loop exit).
		if !taken {
			*e = loopEntry{tag: tagOf(pc), valid: true}
		}
		return
	}
	if taken {
		if e.current < ^uint16(0) {
			e.current++
		}
		// A streak beyond the learned trip count refutes the entry.
		if e.conf > 0 && e.tripCount > 0 && e.current > e.tripCount {
			e.conf = 0
		}
		return
	}
	// Loop exit: does the streak match the learned trip count?
	switch {
	case e.tripCount == e.current && e.tripCount > 0:
		if e.conf < 7 {
			e.conf++
		}
	default:
		e.tripCount = e.current
		e.conf = 0
	}
	e.current = 0
}

// OverrideAccuracy reports how often confident loop overrides were right.
func (l *LoopPredictor) OverrideAccuracy() float64 {
	if l.overrides == 0 {
		return 1
	}
	return float64(l.correct) / float64(l.overrides)
}

// Corrector is a miniature statistical corrector: per-PC signed weights over
// a few folded-history features, vetoing TAGE when the sum opposes its
// prediction with margin.
type Corrector struct {
	weights [][]int8 // [feature][index]
	mask    uint64
}

// correctorFeatures is the number of history folds consulted.
const correctorFeatures = 3

// scThreshold is the veto margin.
const scThreshold = 4

// NewCorrector builds a corrector with the given table size per feature.
func NewCorrector(entries int) *Corrector {
	n := 64
	for n*2 <= entries {
		n *= 2
	}
	w := make([][]int8, correctorFeatures)
	for i := range w {
		w[i] = make([]int8, n)
	}
	return &Corrector{weights: w, mask: uint64(n - 1)}
}

// indices hashes pc with the history's corrector folds, the 6, 14 and 28
// newest outcomes each folded to 12 bits.
func (c *Corrector) indices(pc uint64, hist *GlobalHistory) [correctorFeatures]uint64 {
	var out [correctorFeatures]uint64
	for i := range out {
		out[i] = (pc ^ uint64(hist.folds[scFold+i]) ^ uint64(i)<<9) & c.mask
	}
	return out
}

// Sum returns the corrector's signed agreement with "taken".
func (c *Corrector) Sum(pc uint64, hist *GlobalHistory) int {
	s := 0
	for i, idx := range c.indices(pc, hist) {
		s += int(c.weights[i][idx])
	}
	return s
}

// Veto reports whether the corrector overturns the TAGE direction.
func (c *Corrector) Veto(pc uint64, hist *GlobalHistory, tageTaken bool) bool {
	s := c.Sum(pc, hist)
	if tageTaken {
		return s <= -scThreshold
	}
	return s >= scThreshold
}

// Update trains the weights toward the actual outcome.
func (c *Corrector) Update(pc uint64, hist *GlobalHistory, taken bool) {
	for i, idx := range c.indices(pc, hist) {
		w := c.weights[i][idx]
		if taken && w < 31 {
			c.weights[i][idx] = w + 1
		} else if !taken && w > -32 {
			c.weights[i][idx] = w - 1
		}
	}
}
