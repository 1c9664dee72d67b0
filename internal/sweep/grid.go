package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/power"
	"atr/internal/program"
	"atr/internal/workload"
)

// MemoKey returns the canonical identity string of one (profile, config)
// run. The config is rendered with %+v so every field, including ones added
// in the future, participates and cannot silently alias two different runs.
func MemoKey(p workload.Profile, cfg config.Config) string {
	return fmt.Sprintf("%s|%+v", p.Name, cfg)
}

// KeyWithSample returns the compact run key used in journals and manifests:
// a 128-bit hex prefix of SHA-256 over MemoKey, extended with the
// sampled-execution axis. It inherits MemoKey's every-field coverage while
// keeping journal lines short. The sample mode is appended to the identity
// string only when non-empty ("" for an exact unit), so a sampled unit can
// never alias the exact unit for the same (profile, config).
func KeyWithSample(p workload.Profile, cfg config.Config, sample string) string {
	return unitKey(p, cfg, sample, false)
}

// unitKey is KeyWithSample extended with the Detail request, which enters
// the identity string only when set: a Detail record never aliases the
// plain record of the same run, and every grid that asks for no Detail
// keeps its keys.
func unitKey(p workload.Profile, cfg config.Config, sample string, detail bool) string {
	mk := MemoKey(p, cfg)
	if sample != "" {
		mk += "|sample=" + sample
	}
	if detail {
		mk += "|detail"
	}
	sum := sha256.Sum256([]byte(mk))
	return hex.EncodeToString(sum[:16])
}

// Unit is one run of a sweep grid.
type Unit struct {
	Seq     int // position in the grid's deterministic order
	Profile workload.Profile
	Config  config.Config
	Key     string
	// Sample selects sampled execution for this unit: a checkpoint plan in
	// -sample-mode syntax ("systematic:<period>/<window>/<warmup>"), or ""
	// for exact full-detail simulation.
	Sample string
	// Detail asks for the run's Detail beside its Result (Grid.Detail).
	Detail bool
}

// Run is one (profile, config) pair of an explicit run list (Grid.Runs).
type Run struct {
	Profile workload.Profile
	Config  config.Config
}

// Grid declares a sweep: the cross product of profiles × register-file
// sizes × release schemes over a base configuration, or an explicit run
// list, each run simulating Instr instructions. Product units are ordered
// profile-major, then register-file size, then scheme; a run list keeps
// its own order. That is the deterministic order the final manifest
// reports regardless of execution schedule.
type Grid struct {
	Name     string
	Instr    uint64
	Base     config.Config
	Profiles []workload.Profile
	PhysRegs []int                  // empty: use Base.PhysRegs unchanged
	Schemes  []config.ReleaseScheme // empty: use Base.Scheme unchanged
	// Runs, when set, is the grid's explicit run list, used in place of
	// the Profiles × PhysRegs × Schemes product: a union of products
	// that the axes cannot hold, such as a set of paper figures.
	Runs []Run
	// SampleModes is the sampled-execution axis: each entry is a
	// checkpoint plan in -sample-mode syntax, or "" for exact
	// full-detail simulation. Empty means every unit runs exact — the
	// grid identity (and every unit key) is then byte-identical to a
	// grid that predates the axis.
	SampleModes []string
	// Detail asks for a Detail on every record. A Detail unit runs exact
	// and solo with lifetime tracking on, on the engine's own run
	// function only; the request enters every unit key.
	Detail bool
}

// runs returns the grid's run list: Runs, or the axis product.
func (g Grid) runs() []Run {
	if len(g.Runs) > 0 {
		return g.Runs
	}
	regs := g.PhysRegs
	if len(regs) == 0 {
		regs = []int{g.Base.PhysRegs}
	}
	schemes := g.Schemes
	if len(schemes) == 0 {
		schemes = []config.ReleaseScheme{g.Base.Scheme}
	}
	runs := make([]Run, 0, len(g.Profiles)*len(regs)*len(schemes))
	for _, p := range g.Profiles {
		for _, n := range regs {
			for _, s := range schemes {
				runs = append(runs, Run{p, g.Base.WithPhysRegs(n).WithScheme(s)})
			}
		}
	}
	return runs
}

// Units expands the grid into its runs in deterministic order.
func (g Grid) Units() []Unit {
	modes := g.SampleModes
	if len(modes) == 0 {
		modes = []string{""}
	}
	runs := g.runs()
	units := make([]Unit, 0, len(runs)*len(modes))
	for _, r := range runs {
		for _, sm := range modes {
			units = append(units, Unit{
				Seq:     len(units),
				Profile: r.Profile,
				Config:  r.Config,
				Key:     unitKey(r.Profile, r.Config, sm, g.Detail),
				Sample:  sm,
				Detail:  g.Detail,
			})
		}
	}
	return units
}

// info renders the grid's identity for the manifest header. A run list
// reports only its distinct profiles: its configs are not axis products.
func (g Grid) info() GridInfo {
	gi := GridInfo{Name: g.Name, Instr: g.Instr, Total: len(g.Runs)}
	if len(g.Runs) > 0 {
		seen := make(map[string]bool)
		for _, r := range g.Runs {
			if !seen[r.Profile.Name] {
				seen[r.Profile.Name] = true
				gi.Profiles = append(gi.Profiles, r.Profile.Name)
			}
		}
	} else {
		gi.PhysRegs = g.PhysRegs
		for _, p := range g.Profiles {
			gi.Profiles = append(gi.Profiles, p.Name)
		}
		for _, s := range g.Schemes {
			gi.Schemes = append(gi.Schemes, s.String())
		}
		if len(gi.PhysRegs) == 0 {
			gi.PhysRegs = []int{g.Base.PhysRegs}
		}
		if len(gi.Schemes) == 0 {
			gi.Schemes = []string{g.Base.Scheme.String()}
		}
		gi.Total = len(gi.Profiles) * len(gi.PhysRegs) * len(gi.Schemes)
	}
	for _, m := range g.SampleModes {
		if m == "" {
			m = "exact"
		}
		gi.SampleModes = append(gi.SampleModes, m)
	}
	if len(gi.SampleModes) > 0 {
		gi.Total *= len(gi.SampleModes)
	}
	return gi
}

const defaultInstr = 40_000

// Fig10Grid is the paper's Figure 10 sweep: every benchmark profile at
// both evaluated register-file sizes under all four release schemes, on
// the Golden Cove base configuration. instr 0 selects the default budget.
func Fig10Grid(instr uint64) Grid {
	if instr == 0 {
		instr = defaultInstr
	}
	return Grid{
		Name:     "fig10",
		Instr:    instr,
		Base:     config.GoldenCove(),
		Profiles: workload.Profiles(),
		PhysRegs: []int{64, 224},
		Schemes:  config.Schemes(),
	}
}

// FullGrid is the full replication sweep: every profile across the whole
// register-file axis under every scheme (the superset later figure
// replications draw from).
func FullGrid(instr uint64) Grid {
	if instr == 0 {
		instr = defaultInstr
	}
	return Grid{
		Name:     "full",
		Instr:    instr,
		Base:     config.GoldenCove(),
		Profiles: workload.Profiles(),
		PhysRegs: []int{64, 96, 128, 160, 192, 224, 256, 280},
		Schemes:  config.Schemes(),
	}
}

// MicroGrid is a small fast grid for smoke tests and CI: three seeds of
// the micro profile (renamed so their run keys stay distinct) at two
// register-file sizes under every scheme — 24 runs.
func MicroGrid(instr uint64) Grid {
	if instr == 0 {
		instr = 2000
	}
	var ps []workload.Profile
	for _, seed := range []uint64{1, 2, 3} {
		p := workload.Micro(seed)
		p.Name = fmt.Sprintf("micro%d", seed)
		ps = append(ps, p)
	}
	return Grid{
		Name:     "micro",
		Instr:    instr,
		Base:     config.GoldenCove(),
		Profiles: ps,
		PhysRegs: []int{64, 96},
		Schemes:  config.Schemes(),
	}
}

// LitmusGrid is the memory-ordering stress grid: every litmus profile
// (selected interleavings of each shape) at two register-file sizes under
// every release scheme. Litmus programs are short straight-line probes, so
// the instruction budget is small and the grid never carries a sampled axis
// (atrsim and the CLI reject that combination).
func LitmusGrid(instr uint64) Grid {
	if instr == 0 {
		instr = 1000
	}
	return Grid{
		Name:     "litmus",
		Instr:    instr,
		Base:     config.GoldenCove(),
		Profiles: workload.LitmusProfiles(),
		PhysRegs: []int{64, 96},
		Schemes:  config.Schemes(),
	}
}

// GridByName resolves a named grid preset.
func GridByName(name string, instr uint64) (Grid, error) {
	switch name {
	case "fig10":
		return Fig10Grid(instr), nil
	case "full":
		return FullGrid(instr), nil
	case "micro":
		return MicroGrid(instr), nil
	case "litmus":
		return LitmusGrid(instr), nil
	}
	return Grid{}, fmt.Errorf("sweep: unknown grid %q (have fig10, full, micro, litmus)", name)
}

// RunFunc executes one unit and returns its simulation result. A RunFunc
// must be safe for concurrent calls and deterministic in (Profile, Config)
// for the engine's manifest-determinism guarantee to hold.
type RunFunc func(ctx context.Context, u Unit) (pipeline.Result, error)

// Sim returns the standard solo RunFunc: simulate each unit's profile under
// its config for instr instructions, generating each profile's program at
// most once per RunFunc. Passed to Execute, it runs every unit solo.
func Sim(instr uint64) RunFunc {
	progs := new(Programs)
	return func(_ context.Context, u Unit) (pipeline.Result, error) {
		res, _, err := RunUnit(u, progs.Get(u.Profile), instr)
		return res, err
	}
}

// Detail is what the paper's analysis figures read from one exact run
// beyond its pipeline.Result: the lifetime ledger's state split (Fig 4),
// region ratios (Fig 6), event gaps (Fig 14) and consumer fractions
// (Fig 12), and the activity counts Fig 15's power model prices.
type Detail struct {
	InUse, Unused, Verified            float64
	NonBranch, NonExcept, Atomic       float64
	GapRedefine, GapConsume, GapCommit float64
	// ConsumerFrac[v] is the fraction of atomic regions with v consumers;
	// index 7 holds seven or more.
	ConsumerFrac [8]float64
	Activity     power.Activity
}

// RunUnit simulates one grid unit over prog, the unit's profile image, for
// instr instructions: exact detailed simulation, or the unit's sampling
// plan. A Detail unit runs exact with lifetime tracking on and also
// returns its Detail; a sampled Detail unit is refused. RunUnit is the one
// place a unit becomes a pipeline.Result — the engine, Sim and every
// job-service worker call it — so which executor ran a unit can never
// change its record.
func RunUnit(u Unit, prog *program.Program, instr uint64) (pipeline.Result, *Detail, error) {
	if err := u.Config.Validate(); err != nil {
		return pipeline.Result{}, nil, err
	}
	if u.Sample != "" {
		if u.Detail {
			return pipeline.Result{}, nil, fmt.Errorf("sweep: unit %s asks for a Detail, which only an exact run has (sample %s)", u.Key, u.Sample)
		}
		plan, err := checkpoint.ParseMode(u.Sample)
		if err != nil {
			return pipeline.Result{}, nil, err
		}
		return checkpoint.Run(u.Config, prog, pipeline.SchedulerEvent, instr, plan).Result, nil, nil
	}
	cpu := pipeline.New(u.Config, prog)
	if !u.Detail {
		return cpu.Run(instr), nil, nil
	}
	cpu.Engine.TrackLifetimes()
	res := cpu.Run(instr)
	led := cpu.Engine.Ledger
	d := &Detail{Activity: cpu.Activity()}
	d.InUse, d.Unused, d.Verified = led.StateFractions()
	d.NonBranch, d.NonExcept, d.Atomic = led.RegionFractions()
	d.GapRedefine, d.GapConsume, d.GapCommit = led.EventGaps()
	if led.ConsumerHist.Count() > 0 {
		var tail float64
		for v := 0; v <= 6; v++ {
			d.ConsumerFrac[v] = led.ConsumerHist.Fraction(v)
			tail += d.ConsumerFrac[v]
		}
		if tail < 1 {
			d.ConsumerFrac[7] = 1 - tail
		}
	}
	return res, d, nil
}
