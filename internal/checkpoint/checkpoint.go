// Package checkpoint implements SMARTS-style sampled simulation: the
// functional emulator fast-forwards between systematically spaced detail
// windows while keeping branch predictor and cache state warm functionally,
// and the detailed pipeline runs only inside the windows (after a warm-up
// prefix whose statistics are discarded). Whole-run statistics are
// extrapolated from the window measurements with relative-error bars
// computed from the across-window variance.
//
// Every detail window is primed in process from the one live warmer: the
// fresh pipeline takes the emulator's PC and registers, copies of the warm
// predictor and cache structures, and a copy-on-write overlay of the
// emulator's memory. The predictor and hierarchy the copies land in are
// built once per run and recycled by every window.
package checkpoint

import (
	"fmt"
	"math"

	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/config"
	"atr/internal/isa"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/program"
)

// Plan is a systematic sampling schedule: every Period instructions, run
// Warmup+Window instructions in detail and measure only the trailing Window.
type Plan struct {
	Period uint64 // sampling period in instructions
	Window uint64 // measured detail window length
	Warmup uint64 // detailed warm-up prefix, statistics discarded
}

// ModeError reports a sample mode that ParseMode or Plan.Validate rejects.
type ModeError struct {
	Mode   string // the rejected spelling
	Reason string // what is wrong with it
}

func (e *ModeError) Error() string {
	return fmt.Sprintf("checkpoint: bad sample mode %q: %s", e.Mode, e.Reason)
}

// ParseMode parses a -sample-mode string of the form
// "systematic:<period>/<window>/<warmup>". Only the canonical spelling
// (Plan.String) is accepted: no trailing text, spaces, signs or leading
// zeros, so that one plan has exactly one spelling and so one run key. Every
// rejection is a *ModeError.
func ParseMode(s string) (Plan, error) {
	var p Plan
	n, err := fmt.Sscanf(s, "systematic:%d/%d/%d", &p.Period, &p.Window, &p.Warmup)
	if err != nil || n != 3 {
		return Plan{}, &ModeError{Mode: s, Reason: "want systematic:<period>/<window>/<warmup>"}
	}
	if c := p.String(); c != s {
		return Plan{}, &ModeError{Mode: s, Reason: "not in canonical form " + c}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in -sample-mode syntax.
func (p Plan) String() string {
	return fmt.Sprintf("systematic:%d/%d/%d", p.Period, p.Window, p.Warmup)
}

// Validate checks the schedule is realizable. It compares without adding
// Warmup and Window, which could wrap around.
func (p Plan) Validate() error {
	switch {
	case p.Window < 1:
		return &ModeError{Mode: p.String(), Reason: "window must be >= 1"}
	case p.Window > p.Period || p.Warmup > p.Period-p.Window:
		return &ModeError{Mode: p.String(), Reason: "warmup+window must fit in the period"}
	}
	return nil
}

// warmer fast-forwards a program with the functional emulator while keeping
// the predictor and cache hierarchy warm: every control instruction trains
// the predictor with its in-order outcome, every memory access touches the
// data hierarchy, and every I-cache line transition touches the instruction
// side. The I-side filter (one touch per line, not per instruction) is what
// makes warming an order of magnitude faster than detailed simulation while
// producing the same L1I content: consecutive instructions on one line are
// one line's worth of reuse either way.
type warmer struct {
	em        *program.Emulator
	pred      *bpred.Predictor
	mem       *cache.Hierarchy
	lastILine uint64
	iShift    uint // L1I line shift, hoisted out of the per-instruction loop
}

func newWarmer(prog *program.Program, cfg config.Config) *warmer {
	mem := cache.NewHierarchy(cfg)
	return &warmer{
		em:        program.NewEmulator(prog),
		pred:      bpred.New(cfg),
		mem:       mem,
		lastILine: ^uint64(0),
		iShift:    mem.L1I.LineShift(),
	}
}

// prime drops a freshly built CPU into the warmer's current position:
// RestoreLive takes the emulator's PC and registers and copies the warm
// predictor and cache state structure to structure, and the memory image is
// a copy-on-write overlay over the warmer's memory, so setup is O(1) in the
// working-set size. The overlay contract holds because the driver never
// advances the warmer while the window CPU is live; the window's stores
// stay in the overlay (TestPrimedWindowMatchesOracle).
func (w *warmer) prime(cpu *pipeline.CPU) {
	cpu.RestoreLive(w.em, w.pred, w.mem)
	cpu.Data = program.NewOverlay(w.em.Mem)
}

// advance executes up to n instructions with functional warming and returns
// how many actually executed (fewer only when the program halts).
func (w *warmer) advance(n uint64) uint64 {
	prog := w.em.Prog
	var rec program.Record
	for i := uint64(0); i < n; i++ {
		if !w.em.StepInto(&rec) {
			return i
		}
		if line := (rec.PC * pipeline.InstBytes) >> w.iShift; line != w.lastILine {
			w.mem.TouchInst(rec.PC * pipeline.InstBytes)
			w.lastILine = line
		}
		switch {
		case rec.Op.IsControl():
			w.pred.Warm(prog.At(rec.PC), rec.PC, rec.Taken, rec.NextPC)
		case rec.Op == isa.OpLoad:
			w.mem.TouchData(rec.EA, false)
		}
		// Stores deliberately do NOT touch the hierarchy: the detailed
		// pipeline retires them through the store queue straight into the
		// memory image without a cache access, so warming store lines
		// would hand the windows a hierarchy warmer than the machine they
		// stand in for (store-heavy profiles measured ~20% fast: loads
		// hit in L2/LLC where the continuous run paid DRAM latency).
	}
	return n
}

// RelErr carries 95%-confidence relative error bars for the extrapolated
// statistics, computed from the across-window variance
// (1.96·sd/(√n·mean); 0 when fewer than two windows contribute).
type RelErr struct {
	IPC            float64
	MispredictRate float64
	BranchAcc      float64
	L1DHitRate     float64
}

// Estimate is the result of one sampled run: an extrapolated whole-run
// Result plus the sampling provenance needed to judge it.
type Estimate struct {
	Result      pipeline.Result
	Plan        Plan
	TotalInstr  uint64    // instructions the functional emulator executed
	Windows     int       // measured detail windows
	DetailInstr uint64    // instructions simulated in detail (incl. warm-up)
	FFInstr     uint64    // instructions only fast-forwarded
	WindowIPC   []float64 // per-window IPC samples
	RelErr      RelErr
}

// Info renders the estimate's provenance as a manifest sample block.
func (e *Estimate) Info() *obs.SampleInfo {
	return &obs.SampleInfo{
		Mode:             e.Plan.String(),
		Period:           e.Plan.Period,
		Window:           e.Plan.Window,
		Warmup:           e.Plan.Warmup,
		Windows:          e.Windows,
		DetailInstr:      e.DetailInstr,
		FFInstr:          e.FFInstr,
		IPCRelErr:        e.RelErr.IPC,
		MispredictRelErr: e.RelErr.MispredictRate,
		BranchAccRelErr:  e.RelErr.BranchAcc,
		L1DHitRelErr:     e.RelErr.L1DHitRate,
	}
}

// Run executes prog under cfg in sampled mode: detailed simulation inside
// the plan's windows, functional fast-forward with warm-state maintenance
// everywhere else, stopping after maxInstr instructions or program halt.
// The returned estimate extrapolates every Result statistic from the window
// measurements. Window engines keep no register lifetimes: an Estimate has
// no ledger to put them in.
func Run(cfg config.Config, prog *program.Program, kind pipeline.SchedulerKind, maxInstr uint64, plan Plan) Estimate {
	return run(cfg, prog, kind, maxInstr, plan, false)
}

// run is Run with the window engines' lifetime accounting switchable, so
// tests can prove it leaves the Estimate unchanged.
func run(cfg config.Config, prog *program.Program, kind pipeline.SchedulerKind, maxInstr uint64, plan Plan, lifetimes bool) Estimate {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	w := newWarmer(prog, cfg)
	// Every window's CPU is built around the same predictor and hierarchy:
	// priming overwrites all of their state, so no window sees what its
	// predecessor left there, and no window pays to allocate and zero them.
	winPred, winMem := bpred.New(cfg), cache.NewHierarchy(cfg)

	var (
		deltas  []pipeline.WindowStats
		exact   pipeline.WindowStats // region 0, measured in full detail
		detail  uint64
		ff      uint64
		pos     uint64
		windows int
		first   = true
	)
	for pos < maxInstr && !w.em.Done {
		remaining := maxInstr - pos
		warm, win := plan.Warmup, plan.Window
		if first {
			// The run's cold-start ramp (empty caches, untrained
			// predictor) is a one-off transient, not a recurring phase:
			// a sampled window that lands in it would carry a full
			// period's weight while the real ramp lasts a fraction of
			// one, dragging the whole estimate toward the cold IPC.
			// Region 0 is therefore simulated in detail end to end and
			// its statistics are counted exactly; sampling starts at
			// the second period, by which point functional warming has
			// a full period of history behind it.
			warm, win = 0, min64(plan.Period, remaining)
		} else if warm+win > remaining {
			if remaining > warm {
				win = remaining - warm
			} else {
				warm, win = 0, remaining
			}
		}

		cpu := pipeline.NewWithParts(cfg, prog, kind, winPred, winMem)
		if lifetimes {
			cpu.Engine.TrackLifetimes()
		}
		w.prime(cpu)
		if warm > 0 {
			cpu.RunFor(warm, ^uint64(0))
		}
		s0 := cpu.WindowStats()
		cpu.RunFor(warm+win, ^uint64(0))
		s1 := cpu.WindowStats()
		if s1.Committed > s0.Committed {
			if first {
				exact = diff(s0, s1)
			} else {
				deltas = append(deltas, diff(s0, s1))
				windows++
			}
		}
		first = false
		// The pipeline may overshoot the commit target by up to the retire
		// width; advance the emulator by what actually committed so the
		// warm state stays in lockstep with the detailed run.
		detailDone := w.advance(s1.Committed)
		detail += detailDone

		ffTarget := uint64(0)
		if span := min64(plan.Period, remaining); span > detailDone {
			ffTarget = span - detailDone
		}
		ffDone := w.advance(ffTarget)
		ff += ffDone
		pos += detailDone + ffDone
		if detailDone < s1.Committed || ffDone < ffTarget {
			break // program halted mid-region
		}
	}

	est := Estimate{Plan: plan, TotalInstr: pos, Windows: windows, DetailInstr: detail, FFInstr: ff}
	if pos == 0 {
		return est
	}

	// Per-window samples for the error bars.
	cpi := make([]float64, 0, windows)
	mispredRate := make([]float64, 0, windows)
	var branchAcc, l1dRate []float64
	var sum pipeline.WindowStats
	for _, d := range deltas {
		cpi = append(cpi, float64(d.Cycles)/float64(d.Committed))
		mispredRate = append(mispredRate, float64(d.Mispredicts)/float64(d.Committed))
		if d.CondLookups > 0 {
			branchAcc = append(branchAcc, 1-float64(d.CondWrong)/float64(d.CondLookups))
		}
		if d.L1DHits+d.L1DMisses > 0 {
			l1dRate = append(l1dRate, float64(d.L1DHits)/float64(d.L1DHits+d.L1DMisses))
		}
		sum = add(sum, d)
	}
	est.WindowIPC = make([]float64, len(cpi))
	for i, c := range cpi {
		est.WindowIPC[i] = 1 / c
	}
	est.RelErr = RelErr{
		IPC:            relErr(cpi),
		MispredictRate: relErr(mispredRate),
		BranchAcc:      relErr(branchAcc),
		L1DHitRate:     relErr(l1dRate),
	}

	// Whole-run statistic = exact region-0 count + window rate extrapolated
	// over the tail the windows sampled. The exact prefix never passes
	// through the extrapolation, so the cold-start transient it contains is
	// weighted by its true share of the run, not by a full period.
	total := float64(pos)
	tail := total - float64(exact.Committed)
	if tail < 0 {
		tail = 0
	}
	var scale float64 // tail instructions per sampled-window instruction
	if windows > 0 && sum.Committed > 0 {
		scale = tail / float64(sum.Committed)
	}
	comb := func(sampled, exactCnt uint64) float64 {
		return float64(exactCnt) + float64(sampled)*scale
	}
	perInstr := func(sampled, exactCnt uint64) uint64 {
		return uint64(math.Round(comb(sampled, exactCnt)))
	}
	cycles := exact.Cycles
	if windows > 0 {
		cycles += uint64(math.Round(mean(cpi) * tail))
	}
	if cycles == 0 {
		cycles = 1
	}
	res := pipeline.Result{
		Cycles:       cycles,
		Committed:    pos,
		IPC:          total / float64(cycles),
		Mispredicts:  perInstr(sum.Mispredicts, exact.Mispredicts),
		Flushes:      perInstr(sum.Flushes, exact.Flushes),
		Exceptions:   perInstr(sum.Exceptions, exact.Exceptions),
		Interrupts:   perInstr(sum.Interrupts, exact.Interrupts),
		RenameStalls: perInstr(sum.RenameStalls, exact.RenameStalls),
		Halted:       w.em.Done,
	}
	res.BranchAccuracy, res.IndirectAccuracy, res.L1DHitRate = 1, 1, 0
	if d := comb(sum.CondLookups, exact.CondLookups); d > 0 {
		res.BranchAccuracy = 1 - comb(sum.CondWrong, exact.CondWrong)/d
	}
	if d := comb(sum.IndLookups, exact.IndLookups); d > 0 {
		res.IndirectAccuracy = 1 - comb(sum.IndWrong, exact.IndWrong)/d
	}
	if d := comb(sum.L1DHits+sum.L1DMisses, exact.L1DHits+exact.L1DMisses); d > 0 {
		res.L1DHitRate = comb(sum.L1DHits, exact.L1DHits) / d
	}
	if d := comb(sum.Cycles, exact.Cycles); d > 0 {
		res.AvgRegsLive = comb(sum.OccupancySum, exact.OccupancySum) / d
	}
	est.Result = res
	return est
}

// diff returns b-a field-wise.
func diff(a, b pipeline.WindowStats) pipeline.WindowStats {
	return pipeline.WindowStats{
		Cycles:       b.Cycles - a.Cycles,
		Committed:    b.Committed - a.Committed,
		Mispredicts:  b.Mispredicts - a.Mispredicts,
		Flushes:      b.Flushes - a.Flushes,
		Exceptions:   b.Exceptions - a.Exceptions,
		Interrupts:   b.Interrupts - a.Interrupts,
		RenameStalls: b.RenameStalls - a.RenameStalls,
		OccupancySum: b.OccupancySum - a.OccupancySum,
		CondLookups:  b.CondLookups - a.CondLookups,
		CondWrong:    b.CondWrong - a.CondWrong,
		IndLookups:   b.IndLookups - a.IndLookups,
		IndWrong:     b.IndWrong - a.IndWrong,
		L1DHits:      b.L1DHits - a.L1DHits,
		L1DMisses:    b.L1DMisses - a.L1DMisses,
	}
}

// add returns a+b field-wise.
func add(a, b pipeline.WindowStats) pipeline.WindowStats {
	return pipeline.WindowStats{
		Cycles:       a.Cycles + b.Cycles,
		Committed:    a.Committed + b.Committed,
		Mispredicts:  a.Mispredicts + b.Mispredicts,
		Flushes:      a.Flushes + b.Flushes,
		Exceptions:   a.Exceptions + b.Exceptions,
		Interrupts:   a.Interrupts + b.Interrupts,
		RenameStalls: a.RenameStalls + b.RenameStalls,
		OccupancySum: a.OccupancySum + b.OccupancySum,
		CondLookups:  a.CondLookups + b.CondLookups,
		CondWrong:    a.CondWrong + b.CondWrong,
		IndLookups:   a.IndLookups + b.IndLookups,
		IndWrong:     a.IndWrong + b.IndWrong,
		L1DHits:      a.L1DHits + b.L1DHits,
		L1DMisses:    a.L1DMisses + b.L1DMisses,
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relErr returns the 95% CI half-width relative to the mean over window
// samples: 1.96·sd/(√n·mean).
func relErr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	if m == 0 {
		return 0
	}
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	sd := math.Sqrt(v / float64(n-1))
	return 1.96 * sd / (math.Sqrt(float64(n)) * m)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
