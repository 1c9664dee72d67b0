// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figs 1, 4, 6, 10–15, the §4.4 synthesis numbers and
// the ablation studies) on the synthetic SPEC2017-like workloads. Each
// figure declares the (profile, config) runs it reads; a figure set runs as
// one sweep grid, the deduplicated union of its figures' runs, on the sweep
// engine, and each figure renders its table from the records. Each table
// prints the same rows/series the paper reports, side by side with the
// paper's published values where the paper gives a number.
package experiments

import (
	"fmt"
	"io"
	"math"

	"atr/internal/config"
	"atr/internal/logicsim"
	"atr/internal/pipeline"
	"atr/internal/power"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// RFSizes is the register-file sweep axis used by Figs 1 and 11.
var RFSizes = []int{64, 96, 128, 160, 192, 224, 256, 280}

func base() config.Config { return config.GoldenCove() }

// RunStats is everything a figure reads from one run: its Result, its
// Detail, and the power model priced over the Detail's activity counts.
type RunStats struct {
	pipeline.Result
	sweep.Detail
	Power power.Power
}

// Stats holds the runs a figure set executed, by sweep.MemoKey.
type Stats map[string]RunStats

// Run returns the stats of profile p under cfg. It panics on a run the
// figure set did not declare, so a figure cannot read past its grid.
func (s Stats) Run(p workload.Profile, cfg config.Config) RunStats {
	st, ok := s[sweep.MemoKey(p, cfg)]
	if !ok {
		panic(fmt.Sprintf("experiments: figure reads undeclared run %s", sweep.MemoKey(p, cfg)))
	}
	return st
}

// Figure is one table of the evaluation: the runs it reads and the
// function that prints the table from their stats and returns its result.
type Figure struct {
	Name   string // "fig1" … "fig15", "logic", "ablations"
	Runs   []sweep.Run
	Render func(s Stats, w io.Writer) any
}

// Figures lists every figure in print order: 1, 4, 6, 10, 11, 12, 13, 14,
// 15, the §4.4 logic and the ablations.
func Figures() []Figure {
	all, ints := workload.Profiles(), workload.IntProfiles()
	fig1 := []config.Config{base().WithPhysRegs(0)}
	var fig10, fig11, fig13, fig15 []config.Config
	for _, n := range RFSizes {
		fig1 = append(fig1, base().WithPhysRegs(n))
		fig11 = append(fig11, base().WithPhysRegs(n), base().WithPhysRegs(n).WithScheme(config.SchemeATR))
	}
	for _, n := range []int{64, 224} {
		for _, s := range config.Schemes() {
			fig10 = append(fig10, base().WithPhysRegs(n).WithScheme(s))
		}
	}
	for _, d := range []int{0, 1, 2} {
		cfg := base().WithPhysRegs(64).WithScheme(config.SchemeATR)
		cfg.RedefineDelay = d
		fig13 = append(fig13, cfg)
	}
	fig13 = append(fig13, base().WithPhysRegs(64))
	for _, s := range config.Schemes() {
		for _, n := range fig15Sizes {
			fig15 = append(fig15, base().WithPhysRegs(n).WithScheme(s))
		}
	}
	atr := base().WithScheme(config.SchemeATR)
	return []Figure{
		{"fig1", product(ints, fig1), render(Fig1)},
		{"fig4", product(all, []config.Config{base()}), render(Fig4)},
		{"fig6", product(all, []config.Config{base()}), render(Fig6)},
		{"fig10", product(all, fig10), render(Fig10)},
		{"fig11", product(all, fig11), render(Fig11)},
		{"fig12", product(all, []config.Config{atr}), render(Fig12)},
		{"fig13", product(ints, fig13), render(Fig13)},
		{"fig14", product(ints, []config.Config{atr}), render(Fig14)},
		{"fig15", product(all, fig15), render(Fig15)},
		{"logic", nil, func(_ Stats, w io.Writer) any { return Logic(w) }},
		{"ablations", product(ints, ablationConfigs()), render(Ablations)},
	}
}

// Lookup returns the figure set a -fig flag names: "all", or one figure
// by its number ("10") or name ("logic").
func Lookup(name string) ([]Figure, bool) {
	figs := Figures()
	if name == "all" {
		return figs, true
	}
	for _, f := range figs {
		if f.Name == name || f.Name == "fig"+name {
			return []Figure{f}, true
		}
	}
	return nil, false
}

// Grid is the sweep grid of a figure set: the union of its figures' runs,
// each (profile, config) once, in first-declared order. Its records carry
// the Detail the analysis figures read.
func Grid(name string, figs []Figure, instr uint64) sweep.Grid {
	g := sweep.Grid{Name: name, Instr: instr, Detail: true}
	seen := make(map[string]bool)
	for _, f := range figs {
		for _, r := range f.Runs {
			if k := sweep.MemoKey(r.Profile, r.Config); !seen[k] {
				seen[k] = true
				g.Runs = append(g.Runs, r)
			}
		}
	}
	return g
}

// Index maps the records of m, the manifest the engine merged for g, back
// to their (profile, config) runs.
func Index(g sweep.Grid, m *sweep.Manifest) Stats {
	s := make(Stats, len(m.Runs))
	for i, u := range g.Units() {
		rec := m.Runs[i]
		st := RunStats{Result: rec.Result}
		if rec.Detail != nil {
			st.Detail = *rec.Detail
		}
		st.Power = power.RuntimePower(u.Config, st.Activity)
		s[sweep.MemoKey(u.Profile, u.Config)] = st
	}
	return s
}

// product declares every profile under every config.
func product(ps []workload.Profile, cfgs []config.Config) []sweep.Run {
	runs := make([]sweep.Run, 0, len(ps)*len(cfgs))
	for _, p := range ps {
		for _, cfg := range cfgs {
			runs = append(runs, sweep.Run{Profile: p, Config: cfg})
		}
	}
	return runs
}

// render adapts a figure function to Figure.Render.
func render[T any](fig func(Stats, io.Writer) T) func(Stats, io.Writer) any {
	return func(s Stats, w io.Writer) any { return fig(s, w) }
}

// geomean returns the geometric mean of xs (which must be positive). It is
// computed in the log domain (mean of logs) so long lists of large or tiny
// values cannot overflow or underflow the running product; a zero input
// yields 0 (log 0 = -Inf, exp -Inf = 0), matching the product formulation.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
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

// ---------------------------------------------------------------- Figure 1

// Fig1Result holds the normalized-IPC-vs-RF-size curve.
type Fig1Result struct {
	Sizes      []int
	PerBench   map[string][]float64 // normalized IPC per size
	Average    []float64
	IdealIPC   map[string]float64
	Avg64Ratio float64 // paper: 0.377 at 64 registers
}

// Fig1 reproduces Figure 1: baseline IPC across register file sizes on the
// integer suite, normalized to an infinite register file.
func Fig1(r Stats, w io.Writer) Fig1Result {
	profiles := workload.IntProfiles()
	res := Fig1Result{Sizes: RFSizes, PerBench: map[string][]float64{}, IdealIPC: map[string]float64{}}
	fmt.Fprintf(w, "Figure 1: normalized IPC vs register file size (baseline, SPECint-like)\n")
	fmt.Fprintf(w, "%-11s", "bench")
	for _, s := range RFSizes {
		fmt.Fprintf(w, "%8d", s)
	}
	fmt.Fprintf(w, "%8s\n", "inf-IPC")
	for _, p := range profiles {
		ideal := r.Run(p, base().WithPhysRegs(0)).IPC
		res.IdealIPC[p.Name] = ideal
		row := make([]float64, len(RFSizes))
		fmt.Fprintf(w, "%-11s", p.Name)
		for i, s := range RFSizes {
			ipc := r.Run(p, base().WithPhysRegs(s)).IPC
			row[i] = ipc / ideal
			fmt.Fprintf(w, "%8.3f", row[i])
		}
		fmt.Fprintf(w, "%8.3f\n", ideal)
		res.PerBench[p.Name] = row
	}
	res.Average = make([]float64, len(RFSizes))
	fmt.Fprintf(w, "%-11s", "average")
	for i := range RFSizes {
		var col []float64
		for _, p := range profiles {
			col = append(col, res.PerBench[p.Name][i])
		}
		res.Average[i] = mean(col)
		fmt.Fprintf(w, "%8.3f", res.Average[i])
	}
	fmt.Fprintln(w)
	res.Avg64Ratio = res.Average[0]
	fmt.Fprintf(w, "average at 64 regs: %.3f of ideal (paper: 0.377)\n\n", res.Avg64Ratio)
	return res
}

// ---------------------------------------------------------------- Figure 4

// Fig4Result is the register lifecycle split per suite.
type Fig4Result struct {
	IntInUse, IntUnused, IntVerified float64
	FPInUse, FPUnused, FPVerified    float64
}

// Fig4 reproduces Figure 4: the cycle-count distribution across register
// lifecycle states, averaged over each suite (baseline configuration).
func Fig4(r Stats, w io.Writer) Fig4Result {
	cfg := base()
	agg := func(ps []workload.Profile) (iu, un, vu float64) {
		var a, b, c []float64
		for _, p := range ps {
			s := r.Run(p, cfg)
			a = append(a, s.InUse)
			b = append(b, s.Unused)
			c = append(c, s.Verified)
		}
		return mean(a), mean(b), mean(c)
	}
	var res Fig4Result
	res.IntInUse, res.IntUnused, res.IntVerified = agg(workload.IntProfiles())
	res.FPInUse, res.FPUnused, res.FPVerified = agg(workload.FPProfiles())
	fmt.Fprintf(w, "Figure 4: register lifecycle state split (baseline, %d regs)\n", cfg.PhysRegs)
	fmt.Fprintf(w, "%-10s %-10s %-10s %-16s\n", "suite", "in-use", "unused", "verified-unused")
	fmt.Fprintf(w, "%-10s %-10.1f %-10.1f %-16.1f  (paper: 53.5 / 41.0 / 5.1)\n",
		"int", 100*res.IntInUse, 100*res.IntUnused, 100*res.IntVerified)
	fmt.Fprintf(w, "%-10s %-10.1f %-10.1f %-16.1f  (paper: 78.3 / 18.9 / 2.8)\n\n",
		"fp", 100*res.FPInUse, 100*res.FPUnused, 100*res.FPVerified)
	return res
}

// ---------------------------------------------------------------- Figure 6

// Fig6Result is the per-benchmark atomic register ratio.
type Fig6Result struct {
	PerBench  map[string][3]float64 // non-branch, non-except, atomic
	IntAtomic float64
	FPAtomic  float64
}

// Fig6 reproduces Figure 6: the fraction of allocated registers whose
// rename-to-redefine window is non-branch, non-except, and atomic.
func Fig6(r Stats, w io.Writer) Fig6Result {
	cfg := base()
	res := Fig6Result{PerBench: map[string][3]float64{}}
	fmt.Fprintf(w, "Figure 6: atomic register ratio\n")
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "bench", "non-branch", "non-except", "atomic")
	var intA, fpA []float64
	for _, p := range workload.Profiles() {
		s := r.Run(p, cfg)
		res.PerBench[p.Name] = [3]float64{s.NonBranch, s.NonExcept, s.Atomic}
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f\n", p.Name, 100*s.NonBranch, 100*s.NonExcept, 100*s.Atomic)
		if p.Class == "int" {
			intA = append(intA, s.Atomic)
		} else {
			fpA = append(fpA, s.Atomic)
		}
	}
	res.IntAtomic = mean(intA)
	res.FPAtomic = mean(fpA)
	fmt.Fprintf(w, "%-12s %32.1f  (paper: 17.0)\n", "int average", 100*res.IntAtomic)
	fmt.Fprintf(w, "%-12s %32.1f  (paper: 13.1)\n\n", "fp average", 100*res.FPAtomic)
	return res
}

// --------------------------------------------------------------- Figure 10

// Fig10Result holds the per-benchmark speedups at the two RF sizes.
type Fig10Result struct {
	// Speedups[regs][scheme][bench] as IPC ratio over baseline.
	Speedups map[int]map[config.ReleaseScheme]map[string]float64
	// Suite averages: Avg[regs][scheme][class].
	Avg map[int]map[config.ReleaseScheme]map[string]float64
}

// Fig10 reproduces Figure 10: IPC speedup of nonspec-ER, ATR, and the
// combined scheme over the baseline with 64 and 224 physical registers.
func Fig10(r Stats, w io.Writer) Fig10Result {
	regs := []int{64, 224}
	res := Fig10Result{
		Speedups: map[int]map[config.ReleaseScheme]map[string]float64{},
		Avg:      map[int]map[config.ReleaseScheme]map[string]float64{},
	}
	paperAvg := map[int]map[config.ReleaseScheme]map[string]float64{
		64:  {config.SchemeNonSpecER: {"int": 13.91, "fp": 14.43}, config.SchemeATR: {"int": 5.70, "fp": 4.69}},
		224: {config.SchemeATR: {"int": 1.48, "fp": 1.11}},
	}
	for _, n := range regs {
		res.Speedups[n] = map[config.ReleaseScheme]map[string]float64{}
		res.Avg[n] = map[config.ReleaseScheme]map[string]float64{}
		fmt.Fprintf(w, "Figure 10: IPC speedup over baseline, %d physical registers (%%)\n", n)
		fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "bench", "nonspec-er", "atomic", "combined")
		schemes := []config.ReleaseScheme{config.SchemeNonSpecER, config.SchemeATR, config.SchemeCombined}
		for _, s := range schemes {
			res.Speedups[n][s] = map[string]float64{}
			res.Avg[n][s] = map[string]float64{}
		}
		for _, p := range workload.Profiles() {
			baseIPC := r.Run(p, base().WithPhysRegs(n)).IPC
			fmt.Fprintf(w, "%-12s", p.Name)
			for _, s := range schemes {
				sp := r.Run(p, base().WithPhysRegs(n).WithScheme(s)).IPC / baseIPC
				res.Speedups[n][s][p.Name] = sp
				fmt.Fprintf(w, "%10.2f", 100*(sp-1))
			}
			fmt.Fprintln(w)
		}
		for _, class := range []string{"int", "fp"} {
			fmt.Fprintf(w, "%-12s", class+" avg")
			for _, s := range schemes {
				var xs []float64
				for _, p := range workload.Profiles() {
					if p.Class == class {
						xs = append(xs, res.Speedups[n][s][p.Name])
					}
				}
				avg := geomean(xs)
				res.Avg[n][s][class] = 100 * (avg - 1)
				note := ""
				if pv, ok := paperAvg[n][s][class]; ok {
					note = fmt.Sprintf(" (paper %.2f)", pv)
				}
				fmt.Fprintf(w, "%10.2f%s", 100*(avg-1), note)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return res
}

// --------------------------------------------------------------- Figure 11

// Fig11Result is the ATR speedup across RF sizes.
type Fig11Result struct {
	Sizes  []int
	IntAvg []float64 // percent speedup
	FPAvg  []float64
}

// Fig11 reproduces Figure 11: the atomic scheme's speedup over baseline as
// the register file grows from 64 to 280 entries.
func Fig11(r Stats, w io.Writer) Fig11Result {
	res := Fig11Result{Sizes: RFSizes}
	fmt.Fprintf(w, "Figure 11: ATR speedup over baseline vs RF size (%%)\n%-8s", "size")
	for _, n := range RFSizes {
		fmt.Fprintf(w, "%8d", n)
	}
	fmt.Fprintln(w)
	for _, class := range []string{"int", "fp"} {
		fmt.Fprintf(w, "%-8s", class)
		for _, n := range RFSizes {
			var xs []float64
			for _, p := range workload.Profiles() {
				if p.Class != class {
					continue
				}
				b := r.Run(p, base().WithPhysRegs(n)).IPC
				a := r.Run(p, base().WithPhysRegs(n).WithScheme(config.SchemeATR)).IPC
				xs = append(xs, a/b)
			}
			v := 100 * (geomean(xs) - 1)
			if class == "int" {
				res.IntAvg = append(res.IntAvg, v)
			} else {
				res.FPAvg = append(res.FPAvg, v)
			}
			fmt.Fprintf(w, "%8.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(paper: int 5.70%%@64 decaying to 0.93%%@280; fp 4.69%%@64 to 0.53%%@280)\n\n")
	return res
}

// --------------------------------------------------------------- Figure 12

// Fig12Result is the consumer-count distribution per benchmark.
type Fig12Result struct {
	PerBench map[string][8]float64
	AvgMean  float64
	// AvgMeanConsumed averages only over regions with at least one
	// consumer (never-read flag definitions dominate the zero bucket in
	// x86-style code and are uninteresting for counter sizing).
	AvgMeanConsumed float64
}

// Fig12 reproduces Figure 12: the distribution of consumers per atomic
// region under ATR.
func Fig12(r Stats, w io.Writer) Fig12Result {
	cfg := base().WithScheme(config.SchemeATR)
	res := Fig12Result{PerBench: map[string][8]float64{}}
	fmt.Fprintf(w, "Figure 12: consumers per atomic region (%% of regions)\n")
	fmt.Fprintf(w, "%-12s %6s %6s %6s %6s %6s %6s %6s %6s %6s %7s\n",
		"bench", "0", "1", "2", "3", "4", "5", "6", "7+", "mean", "mean>0")
	var means, meansNZ []float64
	for _, p := range workload.Profiles() {
		s := r.Run(p, cfg)
		res.PerBench[p.Name] = s.ConsumerFrac
		m := 0.0
		for v := 0; v <= 6; v++ {
			m += float64(v) * s.ConsumerFrac[v]
		}
		mnz := m
		if nz := 1 - s.ConsumerFrac[0]; nz > 1e-9 {
			mnz = m / nz
		}
		means = append(means, m)
		meansNZ = append(meansNZ, mnz)
		fmt.Fprintf(w, "%-12s", p.Name)
		for v := 0; v < 8; v++ {
			fmt.Fprintf(w, "%6.1f", 100*s.ConsumerFrac[v])
		}
		fmt.Fprintf(w, "%6.2f %7.2f\n", m, mnz)
	}
	res.AvgMean = mean(means)
	res.AvgMeanConsumed = mean(meansNZ)
	fmt.Fprintf(w, "average consumers per region: %.2f all, %.2f over consumed regions\n", res.AvgMean, res.AvgMeanConsumed)
	fmt.Fprintf(w, "(paper: mostly 1-2 consumers; namd up to 5; zero bucket is never-read flag writes)\n\n")
	return res
}

// --------------------------------------------------------------- Figure 13

// Fig13Result is the redefine-pipeline-delay sensitivity.
type Fig13Result struct {
	Delays []int
	IntAvg []float64 // ATR speedup (%) at 64 regs per delay
}

// Fig13 reproduces Figure 13: the effect of pipelining the register
// redefinition logic by 0, 1, or 2 cycles on the atomic scheme.
func Fig13(r Stats, w io.Writer) Fig13Result {
	delays := []int{0, 1, 2}
	res := Fig13Result{Delays: delays}
	fmt.Fprintf(w, "Figure 13: ATR speedup at 64 regs with pipelined redefinition (%%)\n")
	fmt.Fprintf(w, "%-8s %8s %8s %8s\n", "", "delay 0", "delay 1", "delay 2")
	fmt.Fprintf(w, "%-8s", "int")
	for _, d := range delays {
		var xs []float64
		for _, p := range workload.IntProfiles() {
			b := r.Run(p, base().WithPhysRegs(64)).IPC
			cfg := base().WithPhysRegs(64).WithScheme(config.SchemeATR)
			cfg.RedefineDelay = d
			xs = append(xs, r.Run(p, cfg).IPC/b)
		}
		v := 100 * (geomean(xs) - 1)
		res.IntAvg = append(res.IntAvg, v)
		fmt.Fprintf(w, "%8.2f", v)
	}
	fmt.Fprintf(w, "\n(paper: delay of 1-2 cycles has negligible effect)\n\n")
	return res
}

// --------------------------------------------------------------- Figure 14

// Fig14Result is the average event gaps within atomic regions.
type Fig14Result struct {
	PerBench map[string][3]float64 // redefine, consume, commit
}

// Fig14 reproduces Figure 14: average cycles between a register's rename and
// its redefinition, last consumption, and the redefiner's commit, within
// atomic regions.
func Fig14(r Stats, w io.Writer) Fig14Result {
	cfg := base().WithScheme(config.SchemeATR)
	res := Fig14Result{PerBench: map[string][3]float64{}}
	fmt.Fprintf(w, "Figure 14: cycles from rename to {redefine, last consume, redefiner commit}\n")
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "bench", "redefine", "consume", "commit")
	for _, p := range workload.IntProfiles() {
		s := r.Run(p, cfg)
		res.PerBench[p.Name] = [3]float64{s.GapRedefine, s.GapConsume, s.GapCommit}
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f\n", p.Name, s.GapRedefine, s.GapConsume, s.GapCommit)
	}
	fmt.Fprintf(w, "(paper: redefinition happens well before consumption; commit much later)\n\n")
	return res
}

// --------------------------------------------------------------- Figure 15

// Fig15Result is the overhead-optimization study.
type Fig15Result struct {
	// MinRegs[scheme] is the smallest swept RF size keeping average IPC
	// within 3%% of the 280-register baseline.
	MinRegs map[config.ReleaseScheme]int
	// Reduction[scheme] is the relative RF size reduction vs 280.
	Reduction map[config.ReleaseScheme]float64
	// PowerSave/AreaSave vs the 280-register baseline, for the ATR and
	// combined schemes at their minimal sizes.
	PowerSave map[config.ReleaseScheme]float64
	AreaSave  map[config.ReleaseScheme]float64
}

// fig15Sizes is the register-file axis Fig 15 searches.
var fig15Sizes = []int{140, 156, 172, 188, 204, 220, 236, 252, 264, 280}

// Fig15 reproduces Figure 15: the smallest register file each scheme needs
// to stay within 3% of the 280-register baseline, and the McPAT-style power
// and area savings that shrink affords.
func Fig15(r Stats, w io.Writer) Fig15Result {
	profiles := workload.Profiles()

	// Reference: baseline at 280.
	refIPC := map[string]float64{}
	for _, p := range profiles {
		refIPC[p.Name] = r.Run(p, base().WithPhysRegs(280)).IPC
	}
	avgRatio := func(s config.ReleaseScheme, n int) float64 {
		var xs []float64
		for _, p := range profiles {
			xs = append(xs, r.Run(p, base().WithPhysRegs(n).WithScheme(s)).IPC/refIPC[p.Name])
		}
		return geomean(xs)
	}
	res := Fig15Result{
		MinRegs:   map[config.ReleaseScheme]int{},
		Reduction: map[config.ReleaseScheme]float64{},
		PowerSave: map[config.ReleaseScheme]float64{},
		AreaSave:  map[config.ReleaseScheme]float64{},
	}
	fmt.Fprintf(w, "Figure 15: smallest RF within 3%% of the 280-reg baseline\n")
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s\n", "scheme", "regs", "reduction", "power-save", "area-save")
	paper := map[config.ReleaseScheme][2]float64{
		config.SchemeATR:       {204, 27.1},
		config.SchemeNonSpecER: {212, 24.3},
		config.SchemeCombined:  {196, 30.0},
	}
	for _, s := range config.Schemes() {
		minRegs := 280
		for _, n := range fig15Sizes {
			if avgRatio(s, n) >= 0.97 {
				minRegs = n
				break
			}
		}
		res.MinRegs[s] = minRegs
		res.Reduction[s] = 1 - float64(minRegs)/280

		// Power/area at the minimal configuration vs the reference.
		var refPow, minPow float64
		for _, p := range profiles {
			refPow += r.Run(p, base().WithPhysRegs(280)).Power.Total()
			minPow += r.Run(p, base().WithPhysRegs(minRegs).WithScheme(s)).Power.Total()
		}
		res.PowerSave[s] = 1 - minPow/refPow
		refArea := areaTotal(base().WithPhysRegs(280))
		minArea := areaTotal(base().WithPhysRegs(minRegs))
		res.AreaSave[s] = 1 - minArea/refArea

		note := ""
		if pv, ok := paper[s]; ok {
			note = fmt.Sprintf("  (paper: %d regs, %.1f%%)", int(pv[0]), pv[1])
		}
		fmt.Fprintf(w, "%-12s %8d %9.1f%% %9.1f%% %9.1f%%%s\n", s, minRegs,
			100*res.Reduction[s], 100*res.PowerSave[s], 100*res.AreaSave[s], note)
	}
	fmt.Fprintf(w, "(paper: atomic saves 5.5%% power / 2.7%% area; combined 5.5%% / 2.9%%)\n\n")
	return res
}

// ------------------------------------------------------------- §4.4 logic

// LogicResult is the §4.4 synthesis comparison.
type LogicResult struct {
	Naive    logicsim.Synthesis
	Balanced logicsim.Synthesis
}

// Logic reproduces the §4.4 hardware-cost analysis of the bulk
// no-early-release marking logic for an 8-wide x86-like design.
func Logic(w io.Writer) LogicResult {
	res := LogicResult{
		Naive:    logicsim.BuildBulkMarkNaive(8, 16).Synthesize(3),
		Balanced: logicsim.BuildBulkMark(8, 16).Synthesize(3),
	}
	fmt.Fprintf(w, "Section 4.4: bulk no-early-release logic synthesis (8-wide, 16 arch regs)\n")
	fmt.Fprintf(w, "naive (synthesis-like): %v\n", res.Naive)
	fmt.Fprintf(w, "balanced trees:         %v\n", res.Balanced)
	fmt.Fprintf(w, "(paper: 2,960 gates, 42 levels, 2.6 GHz; pipelined beyond 4 GHz)\n\n")
	return res
}

// areaTotal is a helper over the power model.
func areaTotal(cfg config.Config) float64 {
	return power.CoreArea(cfg).Total()
}
