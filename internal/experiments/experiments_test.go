package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/power"
	"atr/internal/program"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// testInstr keeps experiment tests fast: small instruction budget.
const testInstr = 8000

// execute runs figs' grid on the sweep engine, as atrsweep does, and
// indexes its records.
func execute(t testing.TB, figs []Figure, instr uint64) Stats {
	t.Helper()
	g := Grid("test", figs, instr)
	m, err := sweep.New(sweep.Options{}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Totals.Failed != 0 {
		t.Fatalf("%d runs failed", m.Totals.Failed)
	}
	return Index(g, m)
}

// figure runs the named figure's grid at the test budget.
func figure(t testing.TB, name string) Stats {
	t.Helper()
	figs, ok := Lookup(name)
	if !ok {
		t.Fatalf("no figure %q", name)
	}
	return execute(t, figs, testInstr)
}

func TestRunStatsPopulated(t *testing.T) {
	p, _ := workload.ByName("omnetpp")
	cfg := config.GoldenCove().WithScheme(config.SchemeATR).WithPhysRegs(64)
	s := execute(t, []Figure{{Runs: []sweep.Run{{Profile: p, Config: cfg}}}}, testInstr).Run(p, cfg)
	if s.Atomic <= 0 {
		t.Error("atomic ratio missing")
	}
	if s.InUse+s.Unused+s.Verified < 0.99 {
		t.Errorf("state split incomplete: %v+%v+%v", s.InUse, s.Unused, s.Verified)
	}
	if s.Activity.Committed != s.Committed || s.Activity.Cycles != s.Cycles {
		t.Errorf("activity counts %+v disagree with the result %+v", s.Activity, s.Result)
	}
	if s.Power.Total() <= 0 {
		t.Error("power model not evaluated")
	}
	if s.GapCommit < s.GapRedefine {
		t.Error("commit gap must not precede redefine gap")
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Fig1(figure(t, "1"), io.Discard)
	if len(res.Average) != len(RFSizes) {
		t.Fatal("missing sizes")
	}
	// Normalized IPC must be (weakly) increasing in RF size and below ~1.
	if res.Average[0] >= res.Average[len(res.Average)-1] {
		t.Errorf("no register sensitivity: %v", res.Average)
	}
	if res.Avg64Ratio <= 0.1 || res.Avg64Ratio >= 1.0 {
		t.Errorf("64-reg ratio %.3f implausible (paper 0.377)", res.Avg64Ratio)
	}
	for _, v := range res.Average {
		if v > 1.05 {
			t.Errorf("normalized IPC %v exceeds ideal", v)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res := Fig4(figure(t, "4"), io.Discard)
	sum := res.IntInUse + res.IntUnused + res.IntVerified
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("int fractions sum to %v", sum)
	}
	if res.IntInUse <= 0 || res.IntUnused <= 0 {
		t.Error("degenerate state split")
	}
}

func TestFig6Shape(t *testing.T) {
	res := Fig6(figure(t, "6"), io.Discard)
	// The paper's headline analysis: a sizeable fraction of allocations is
	// atomic (17% int / 13% fp). Accept a generous band.
	if res.IntAtomic < 0.08 || res.IntAtomic > 0.35 {
		t.Errorf("int atomic ratio %.3f outside band around the paper's 0.17", res.IntAtomic)
	}
	if res.FPAtomic < 0.05 || res.FPAtomic > 0.30 {
		t.Errorf("fp atomic ratio %.3f outside band around the paper's 0.13", res.FPAtomic)
	}
	for name, v := range res.PerBench {
		if v[0] < v[2]-1e-9 || v[1] < v[2]-1e-9 {
			t.Errorf("%s: atomic ratio exceeds its supersets: %v", name, v)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Fig10(figure(t, "10"), io.Discard)
	for _, class := range []string{"int", "fp"} {
		atr64 := res.Avg[64][config.SchemeATR][class]
		er64 := res.Avg[64][config.SchemeNonSpecER][class]
		comb64 := res.Avg[64][config.SchemeCombined][class]
		atr224 := res.Avg[224][config.SchemeATR][class]
		if atr64 <= 0 {
			t.Errorf("%s: ATR speedup at 64 regs = %.2f, want positive", class, atr64)
		}
		if er64 <= atr64 {
			t.Errorf("%s: paper ordering ER(%.2f) > ATR(%.2f) violated", class, er64, atr64)
		}
		if comb64 < er64-1.0 {
			t.Errorf("%s: combined (%.2f) should not trail ER (%.2f)", class, comb64, er64)
		}
		if atr224 >= atr64 {
			t.Errorf("%s: ATR gain must shrink with RF size: %.2f@64 vs %.2f@224", class, atr64, atr224)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Fig13(figure(t, "13"), io.Discard)
	// The paper: a 1-2 cycle delay has negligible effect. Allow 2 points.
	if diff := res.IntAvg[0] - res.IntAvg[2]; diff > 2.5 {
		t.Errorf("delay-2 costs %.2f points, paper says negligible (%v)", diff, res.IntAvg)
	}
}

func TestLogicOutput(t *testing.T) {
	var sb strings.Builder
	res := Logic(&sb)
	if res.Naive.Gates <= res.Balanced.Gates {
		t.Error("naive synthesis should use more gates")
	}
	if !strings.Contains(sb.String(), "2,960 gates") {
		t.Error("missing paper reference in output")
	}
}

func TestGeomeanMean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean = %v", g)
	}
	if m := mean([]float64{1, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if geomean(nil) != 0 || mean(nil) != 0 {
		t.Error("empty slices")
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Fig11(figure(t, "11"), io.Discard)
	if len(res.IntAvg) != len(RFSizes) || len(res.FPAvg) != len(RFSizes) {
		t.Fatal("missing points")
	}
	// Fig 11's claim: the highest gains are at the smallest file, and the
	// gain at 280 is a small fraction of the gain at 64.
	if res.IntAvg[0] <= res.IntAvg[len(res.IntAvg)-1] {
		t.Errorf("int ATR gain should decay with RF size: %v", res.IntAvg)
	}
}

func TestFig12Shape(t *testing.T) {
	res := Fig12(figure(t, "12"), io.Discard)
	if res.AvgMeanConsumed < 0.5 || res.AvgMeanConsumed > 4 {
		t.Errorf("mean consumers over consumed regions = %.2f, paper says 1-2", res.AvgMeanConsumed)
	}
	for name, fr := range res.PerBench {
		sum := 0.0
		for _, v := range fr {
			if v < 0 {
				t.Errorf("%s: negative fraction %v", name, v)
			}
			sum += v
		}
		if sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", name, sum)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	res := Fig14(figure(t, "14"), io.Discard)
	for name, g := range res.PerBench {
		redef, consume, commit := g[0], g[1], g[2]
		if commit < redef {
			t.Errorf("%s: commit gap %v before redefine gap %v", name, commit, redef)
		}
		// The paper's Fig 14 headline: redefinition happens quickly;
		// commit of the redefiner is far later.
		if commit < 5*redef && commit > 0 {
			t.Errorf("%s: commit gap %v not much later than redefine %v", name, commit, redef)
		}
		_ = consume
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Fig15(figure(t, "15"), io.Discard)
	for _, s := range config.Schemes() {
		if res.MinRegs[s] < 64 || res.MinRegs[s] > 280 {
			t.Errorf("%v: min regs %d out of range", s, res.MinRegs[s])
		}
	}
	// Early-release schemes must not need more registers than baseline.
	baseMin := res.MinRegs[config.SchemeBaseline]
	for _, s := range []config.ReleaseScheme{config.SchemeNonSpecER, config.SchemeATR, config.SchemeCombined} {
		if res.MinRegs[s] > baseMin {
			t.Errorf("%v needs %d regs, more than baseline's %d", s, res.MinRegs[s], baseMin)
		}
	}
	if res.MinRegs[config.SchemeCombined] > res.MinRegs[config.SchemeATR] {
		t.Error("combined should not need more registers than ATR alone")
	}
}

func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res := Ablations(figure(t, "ablations"), io.Discard)
	// §5.4: 3-bit counter within noise of unbounded.
	if d := res.CounterWidth[0] - res.CounterWidth[3]; d > 1.5 {
		t.Errorf("3-bit counter loses %.2f points vs unbounded; paper says negligible", d)
	}
	if res.CounterWidth[2] > res.CounterWidth[3]+1.0 {
		t.Error("2-bit counter should not beat 3-bit")
	}
	// The translate-time precommit rule is what gives nonspec-ER teeth.
	if res.PrecommitConservative > res.PrecommitAggressive {
		t.Error("conservative precommit should not beat aggressive")
	}
	// Recovery styles are cycle-identical.
	if res.WalkRecovery != res.CheckpointRecovery {
		t.Errorf("recovery styles differ: %v vs %v", res.WalkRecovery, res.CheckpointRecovery)
	}
	// §6 composition: ME+ATR at least as good as each alone.
	if res.MoveElimATR < res.ATROnly-0.5 || res.MoveElimATR < res.MoveElimOnly-0.5 {
		t.Errorf("ME+ATR (%.2f) should not trail ATR (%.2f) or ME (%.2f)",
			res.MoveElimATR, res.ATROnly, res.MoveElimOnly)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("everything")
	}
	figs := Figures()
	s := execute(t, figs, 3000) // minimal budget: exercises every code path
	var sb strings.Builder
	for _, f := range figs {
		f.Render(s, &sb)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 4", "Figure 6", "Figure 10",
		"Figure 11", "Figure 12", "Figure 13", "Figure 14", "Figure 15",
		"Section 4.4", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("All output missing %q", want)
		}
	}
}

// TestGeomeanExtremes pins the log-domain formulation: a running product
// over these inputs would overflow (or underflow) float64 and return +Inf
// or 0, but the mean of logs stays in range.
func TestGeomeanExtremes(t *testing.T) {
	big := make([]float64, 50)
	tiny := make([]float64, 50)
	for i := range big {
		big[i] = 1e300 // product overflows after 2 elements
		tiny[i] = 1e-300
	}
	if g := geomean(big); math.IsInf(g, 0) || math.Abs(g-1e300)/1e300 > 1e-9 {
		t.Errorf("geomean of 1e300s = %v, want 1e300", g)
	}
	if g := geomean(tiny); g == 0 || math.Abs(g-1e-300)/1e-300 > 1e-9 {
		t.Errorf("geomean of 1e-300s = %v, want 1e-300", g)
	}
	mixed := append(append([]float64{}, big...), tiny...)
	if g := geomean(mixed); math.Abs(g-1) > 1e-9 {
		t.Errorf("geomean of balanced extremes = %v, want 1", g)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
}

// TestGridRunsEachRunOnce: a figure set's grid holds every run any of its
// figures declares exactly once, and no run that none declares, so it is
// smaller than the figures' declarations put together.
func TestGridRunsEachRunOnce(t *testing.T) {
	figs := Figures()
	g := Grid("all", figs, 1000)
	inGrid := make(map[string]int)
	for _, r := range g.Runs {
		inGrid[sweep.MemoKey(r.Profile, r.Config)]++
	}
	declared := 0
	isDeclared := make(map[string]bool)
	for _, f := range figs {
		declared += len(f.Runs)
		for _, r := range f.Runs {
			k := sweep.MemoKey(r.Profile, r.Config)
			isDeclared[k] = true
			if inGrid[k] != 1 {
				t.Errorf("%s: run %s appears %d times in the grid", f.Name, k, inGrid[k])
			}
		}
	}
	for k := range inGrid {
		if !isDeclared[k] {
			t.Errorf("grid runs %s, which no figure declares", k)
		}
	}
	if len(g.Runs) >= declared {
		t.Errorf("grid has %d runs, declarations %d: nothing was shared", len(g.Runs), declared)
	}
	if len(g.Runs) != 1434 {
		t.Errorf("grid has %d runs, want the 1,434 distinct runs of every figure", len(g.Runs))
	}
}

// simulate is the former experiments runner's run function, kept as the
// oracle for the engine's records: one exact run with lifetime tracking
// on, its stats read straight off the CPU.
func simulate(prog *program.Program, cfg config.Config, instr uint64) RunStats {
	cpu := pipeline.New(cfg, prog)
	cpu.Engine.TrackLifetimes()
	out := RunStats{Result: cpu.Run(instr)}
	led := cpu.Engine.Ledger
	out.InUse, out.Unused, out.Verified = led.StateFractions()
	out.NonBranch, out.NonExcept, out.Atomic = led.RegionFractions()
	out.GapRedefine, out.GapConsume, out.GapCommit = led.EventGaps()
	if n := led.ConsumerHist.Count(); n > 0 {
		for v := 0; v <= 6; v++ {
			out.ConsumerFrac[v] = led.ConsumerHist.Fraction(v)
		}
		var tail float64
		for v := 0; v <= 6; v++ {
			tail += out.ConsumerFrac[v]
		}
		if tail < 1 {
			out.ConsumerFrac[7] = 1 - tail
		}
	}
	out.Activity = cpu.Activity()
	out.Power = power.RuntimePower(cfg, out.Activity)
	return out
}

// renderText renders f from s, turning a read of a missing run into an
// error.
func renderText(f Figure, s Stats) (text string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	var buf bytes.Buffer
	f.Render(s, &buf)
	return buf.String(), nil
}

// TestFiguresMatchDirectRuns renders every figure from the engine's
// records — as merged, and as resumed from the sweep's journal — and from
// direct runs of exactly the pairs the figure declares, through the oracle
// simulate. The texts must be byte-identical. A figure that reads an
// undeclared run fails on its direct stats; a Detail lost in the engine or
// the journal, or a run the grid dropped or merged, fails on the engine's.
func TestFiguresMatchDirectRuns(t *testing.T) {
	const instr = 1500
	figs := Figures()
	g := Grid("all", figs, instr)
	var journal bytes.Buffer
	m, err := sweep.New(sweep.Options{Journal: &journal}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sweep.LoadJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.Options{Resume: j})
	resumed, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Info().Resumed; got != len(g.Runs) {
		t.Fatalf("resumed %d of %d runs from the journal", got, len(g.Runs))
	}
	fromEngine, fromJournal := Index(g, m), Index(g, resumed)

	// Simulate every declared pair once, on as many cores as the engine.
	progs := make(map[string]*program.Program)
	index := make(map[string]int)
	var runs []sweep.Run
	for _, f := range figs {
		for _, r := range f.Runs {
			if progs[r.Profile.Name] == nil {
				progs[r.Profile.Name] = r.Profile.Generate()
			}
			if k := sweep.MemoKey(r.Profile, r.Config); index[k] == 0 {
				runs = append(runs, r)
				index[k] = len(runs)
			}
		}
	}
	direct := make([]RunStats, len(runs))
	sweep.NewPool(0).ForEach(context.Background(), len(runs), func(_, i int) {
		direct[i] = simulate(progs[runs[i].Profile.Name], runs[i].Config, instr)
	})

	for _, f := range figs {
		own := make(Stats)
		for _, r := range f.Runs {
			k := sweep.MemoKey(r.Profile, r.Config)
			own[k] = direct[index[k]-1]
		}
		want, err := renderText(f, own)
		if err != nil {
			t.Errorf("%s from its declared runs: %v", f.Name, err)
			continue
		}
		for _, src := range []struct {
			name string
			s    Stats
		}{{"engine", fromEngine}, {"journal", fromJournal}} {
			got, err := renderText(f, src.s)
			if err != nil {
				t.Errorf("%s from the %s's records: %v", f.Name, src.name, err)
			} else if got != want {
				t.Errorf("%s from the %s's records differs from direct runs:\n%s\nwant:\n%s", f.Name, src.name, got, want)
			}
		}
	}
}
