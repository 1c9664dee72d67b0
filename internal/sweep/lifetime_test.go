package sweep

import (
	"testing"

	"atr/internal/config"
	"atr/internal/core"
	"atr/internal/pipeline"
	"atr/internal/workload"
)

// TestRunUnitTracksNoLifetimes: no sweep or served result reads a
// register-lifetime ledger, so the engine RunUnit builds must keep none.
// Turning lifetimes on allocates the ledger and a lifetime table per
// register class (trackCost, measured here rather than hard-coded); RunUnit
// must allocate less than its own steps (validate, build, run) plus that.
func TestRunUnitTracksNoLifetimes(t *testing.T) {
	p := workload.Micro(5)
	prog := p.Generate()
	cfg := config.GoldenCove().WithPhysRegs(64).WithScheme(config.SchemeCombined)
	u := Unit{Profile: p, Config: cfg}
	const instr = 2000

	trackCost := testing.AllocsPerRun(5, func() { core.NewEngine(cfg).TrackLifetimes() }) -
		testing.AllocsPerRun(5, func() { core.NewEngine(cfg) })
	if trackCost < 1 {
		t.Fatalf("TrackLifetimes allocates %.1f objects; the test cannot tell it apart", trackCost)
	}
	base := testing.AllocsPerRun(5, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		pipeline.New(cfg, prog).Run(instr)
	})
	unit := testing.AllocsPerRun(5, func() {
		if _, err := RunUnit(u, prog, instr); err != nil {
			t.Fatal(err)
		}
	})
	if unit >= base+trackCost {
		t.Errorf("RunUnit allocates %.0f objects, its steps without lifetimes %.0f: lifetime tables (%.0f) were allocated", unit, base, trackCost)
	}
}
