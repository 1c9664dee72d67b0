package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/workload"
)

// MemoKey returns the canonical identity string of one (profile, config)
// run — the same string experiments.Runner uses as its memoization key.
// The config is rendered with %+v so every field, including ones added in
// the future, participates and cannot silently alias two different runs.
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
	mk := MemoKey(p, cfg)
	if sample != "" {
		mk += "|sample=" + sample
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
}

// Grid declares a sweep: the cross product of profiles × register-file
// sizes × release schemes over a base configuration, each run simulating
// Instr instructions. Units are ordered profile-major, then register-file
// size, then scheme — the deterministic order the final manifest reports
// regardless of execution schedule.
type Grid struct {
	Name     string
	Instr    uint64
	Base     config.Config
	Profiles []workload.Profile
	PhysRegs []int                  // empty: use Base.PhysRegs unchanged
	Schemes  []config.ReleaseScheme // empty: use Base.Scheme unchanged
	// SampleModes is the sampled-execution axis: each entry is a
	// checkpoint plan in -sample-mode syntax, or "" for exact
	// full-detail simulation. Empty means every unit runs exact — the
	// grid identity (and every unit key) is then byte-identical to a
	// grid that predates the axis.
	SampleModes []string
}

// Units expands the grid into its runs in deterministic order.
func (g Grid) Units() []Unit {
	regs := g.PhysRegs
	if len(regs) == 0 {
		regs = []int{g.Base.PhysRegs}
	}
	schemes := g.Schemes
	if len(schemes) == 0 {
		schemes = []config.ReleaseScheme{g.Base.Scheme}
	}
	modes := g.SampleModes
	if len(modes) == 0 {
		modes = []string{""}
	}
	units := make([]Unit, 0, len(g.Profiles)*len(regs)*len(schemes)*len(modes))
	for _, p := range g.Profiles {
		for _, n := range regs {
			for _, s := range schemes {
				cfg := g.Base.WithPhysRegs(n).WithScheme(s)
				for _, sm := range modes {
					units = append(units, Unit{
						Seq:     len(units),
						Profile: p,
						Config:  cfg,
						Key:     KeyWithSample(p, cfg, sm),
						Sample:  sm,
					})
				}
			}
		}
	}
	return units
}

// info renders the grid's identity for the manifest header.
func (g Grid) info() GridInfo {
	gi := GridInfo{Name: g.Name, Instr: g.Instr, PhysRegs: g.PhysRegs}
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
	for _, m := range g.SampleModes {
		if m == "" {
			m = "exact"
		}
		gi.SampleModes = append(gi.SampleModes, m)
	}
	gi.Total = len(gi.Profiles) * len(gi.PhysRegs) * len(gi.Schemes)
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

// progCache generates each profile's program at most once. Programs are
// immutable code images, shared freely across workers and lanes.
type progCache struct {
	mu    sync.Mutex
	progs map[string]*progOnce
}

type progOnce struct {
	once sync.Once
	prog *program.Program
}

func (c *progCache) get(p workload.Profile) *program.Program {
	c.mu.Lock()
	if c.progs == nil {
		c.progs = make(map[string]*progOnce)
	}
	e, ok := c.progs[p.Name]
	if !ok {
		e = &progOnce{}
		c.progs[p.Name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prog = p.Generate() })
	return e.prog
}

// sim is the solo RunFunc over this cache's programs (see Sim).
func (c *progCache) sim(instr uint64) RunFunc {
	return func(_ context.Context, u Unit) (pipeline.Result, error) {
		return RunUnit(u, c.get(u.Profile), instr)
	}
}

// Sim returns the standard solo RunFunc: simulate each unit's profile under
// its config for instr instructions, generating each profile's program at
// most once per RunFunc. Passed to Execute, it runs every unit solo.
func Sim(instr uint64) RunFunc { return new(progCache).sim(instr) }

// RunUnit simulates one grid unit over prog, the unit's profile image, for
// instr instructions: exact detailed simulation, or the unit's sampling
// plan. It is the one place a unit becomes a pipeline.Result — Sim and
// every job-service worker call it — so which executor ran a unit can
// never change its record.
func RunUnit(u Unit, prog *program.Program, instr uint64) (pipeline.Result, error) {
	if err := u.Config.Validate(); err != nil {
		return pipeline.Result{}, err
	}
	if u.Sample != "" {
		plan, err := checkpoint.ParseMode(u.Sample)
		if err != nil {
			return pipeline.Result{}, err
		}
		return checkpoint.Run(u.Config, prog, pipeline.SchedulerEvent, instr, plan).Result, nil
	}
	return pipeline.New(u.Config, prog).Run(instr), nil
}
