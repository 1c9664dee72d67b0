package experiments

import (
	"fmt"
	"io"

	"atr/internal/config"
	"atr/internal/workload"
)

// AblationResult holds the design-choice sensitivity studies that back the
// paper's §5.4 discussion and this reproduction's own modeling decisions.
type AblationResult struct {
	// CounterWidth[bits] is the int-average ATR speedup (%) at 64
	// registers for the given consumer counter width (0 = unbounded).
	CounterWidth map[int]float64
	// PrecommitConservative is the int-average nonspec-ER speedup (%) at
	// 64 registers when loads/stores block precommit until completion
	// (vs the paper's translate-time rule reported in Fig 10).
	PrecommitConservative float64
	PrecommitAggressive   float64
	// WalkRecovery is the int-average combined-scheme speedup (%) at 64
	// registers under walk-based SRT recovery (vs checkpoints).
	WalkRecovery       float64
	CheckpointRecovery float64
	// Move elimination (§6): alone, and composed with ATR.
	MoveElimOnly float64
	MoveElimATR  float64
	ATROnly      float64
}

// ablationConfigs lists the configs Ablations reads: the 64-register
// baseline and each study's variant of it.
func ablationConfigs() []config.Config {
	b := base().WithPhysRegs(64)
	cfgs := []config.Config{b}
	for _, bits := range []int{2, 3, 4, 0} {
		c := b.WithScheme(config.SchemeATR)
		c.ConsumerCounterBits = bits
		cfgs = append(cfgs, c)
	}
	er := b.WithScheme(config.SchemeNonSpecER)
	erWait := er
	erWait.MemPrecommitAtExec = false
	comb := b.WithScheme(config.SchemeCombined)
	walk := comb
	walk.WalkRecovery = true
	me := b
	me.MoveElimination = true
	return append(cfgs, er, erWait, comb, walk, b.WithScheme(config.SchemeATR), me, me.WithScheme(config.SchemeATR))
}

// Ablations runs the design-choice studies on the integer suite.
func Ablations(r Stats, w io.Writer) AblationResult {
	profiles := workload.IntProfiles()
	res := AblationResult{CounterWidth: map[int]float64{}}

	speedup := func(mut func(*config.Config)) float64 {
		var xs []float64
		for _, p := range profiles {
			b := r.Run(p, base().WithPhysRegs(64)).IPC
			cfg := base().WithPhysRegs(64)
			mut(&cfg)
			xs = append(xs, r.Run(p, cfg).IPC/b)
		}
		return 100 * (geomean(xs) - 1)
	}

	fmt.Fprintf(w, "Ablation: consumer counter width (ATR speedup at 64 regs, int avg %%)\n")
	fmt.Fprintf(w, "%-10s", "bits")
	for _, bits := range []int{2, 3, 4, 0} {
		label := fmt.Sprintf("%d", bits)
		if bits == 0 {
			label = "inf"
		}
		fmt.Fprintf(w, "%8s", label)
	}
	fmt.Fprintf(w, "\n%-10s", "speedup")
	for _, bits := range []int{2, 3, 4, 0} {
		bits := bits
		v := speedup(func(c *config.Config) {
			c.Scheme = config.SchemeATR
			c.ConsumerCounterBits = bits
		})
		res.CounterWidth[bits] = v
		fmt.Fprintf(w, "%8.2f", v)
	}
	fmt.Fprintf(w, "\n(paper §5.4: a 3-bit counter is indistinguishable from an infinite one)\n\n")

	res.PrecommitAggressive = speedup(func(c *config.Config) {
		c.Scheme = config.SchemeNonSpecER
	})
	res.PrecommitConservative = speedup(func(c *config.Config) {
		c.Scheme = config.SchemeNonSpecER
		c.MemPrecommitAtExec = false
	})
	fmt.Fprintf(w, "Ablation: memory precommit point (nonspec-ER speedup at 64 regs, int avg %%)\n")
	fmt.Fprintf(w, "translate-time (paper, Fig 5): %6.2f\n", res.PrecommitAggressive)
	fmt.Fprintf(w, "wait-for-completion:           %6.2f\n", res.PrecommitConservative)
	fmt.Fprintf(w, "(the entire nonspec-ER benefit rides on precommitting past in-flight loads)\n\n")

	res.CheckpointRecovery = speedup(func(c *config.Config) {
		c.Scheme = config.SchemeCombined
	})
	res.WalkRecovery = speedup(func(c *config.Config) {
		c.Scheme = config.SchemeCombined
		c.WalkRecovery = true
	})
	fmt.Fprintf(w, "Ablation: SRT recovery style (combined speedup at 64 regs, int avg %%)\n")
	fmt.Fprintf(w, "checkpoint-based: %6.2f\nwalk-based:       %6.2f\n", res.CheckpointRecovery, res.WalkRecovery)
	fmt.Fprintf(w, "(identical cycle behaviour by construction; both restore the same SRT)\n\n")

	res.ATROnly = speedup(func(c *config.Config) { c.Scheme = config.SchemeATR })
	res.MoveElimOnly = speedup(func(c *config.Config) { c.MoveElimination = true })
	res.MoveElimATR = speedup(func(c *config.Config) {
		c.Scheme = config.SchemeATR
		c.MoveElimination = true
	})
	fmt.Fprintf(w, "Ablation: move elimination composition (speedup at 64 regs, int avg %%)\n")
	fmt.Fprintf(w, "move elimination alone: %6.2f\n", res.MoveElimOnly)
	fmt.Fprintf(w, "ATR alone:              %6.2f\n", res.ATROnly)
	fmt.Fprintf(w, "move elimination + ATR: %6.2f\n", res.MoveElimATR)
	fmt.Fprintf(w, "(paper §6: the two are orthogonal and combine synergistically)\n\n")
	return res
}
