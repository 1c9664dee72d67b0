package server

import (
	"fmt"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// JobSpec is what a client submits: a single run, a named grid preset, or
// an arbitrary declared grid. Specs are persisted verbatim in the state
// dir, so a restarted daemon can rebuild the exact grid and resume it.
type JobSpec struct {
	// Kind is "run" (one simulation) or "grid" (a declared sweep).
	Kind string `json:"kind"`

	// Instr is the per-run instruction budget; 0 selects the daemon's
	// default.
	Instr uint64 `json:"instr,omitempty"`

	// Grid names a preset (fig10, full, micro) for Kind "grid". Empty
	// with Kind "grid" declares a custom grid from the fields below.
	Grid string `json:"grid,omitempty"`

	// Custom-grid declaration (Kind "grid", Grid empty): the cross
	// product of profiles × register-file sizes × schemes, exactly as
	// sweep.Grid expands it.
	Name     string   `json:"name,omitempty"` // custom grid label (default "custom")
	Profiles []string `json:"profiles,omitempty"`
	PhysRegs []int    `json:"phys_regs,omitempty"`
	Schemes  []string `json:"schemes,omitempty"`

	// Single-run declaration (Kind "run").
	Bench  string `json:"bench,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Regs   int    `json:"regs,omitempty"` // 0 selects the base config's size

	// Sample selects sampled execution for Kind "run": a checkpoint plan
	// in -sample-mode syntax ("systematic:<period>/<window>/<warmup>"),
	// or empty for exact simulation.
	Sample string `json:"sample,omitempty"`

	// SampleModes is the sampled-execution axis for Kind "grid": each
	// entry is a sampling plan or "exact". Empty runs the whole grid
	// exact.
	SampleModes []string `json:"sample_modes,omitempty"`

	// Ephemeral ties the job to the submitting connection: if the client
	// that submitted with ?watch=1 disconnects mid-stream, the job is
	// cancelled (its journal stays resumable). Ephemeral jobs are not
	// resurrected after a daemon restart.
	Ephemeral bool `json:"ephemeral,omitempty"`

	// InjectPanic, when positive, poisons the grid's k-th run (1-based,
	// grid order) exactly as atrsweep's -inject-panic flag does: every
	// attempt of that run panics inside the worker and is recorded as a
	// failure. It is a fault-injection hook for exercising the daemon's
	// isolation (one poisoned run cannot kill a job, and the telemetry
	// gauges must still return to zero). Failed records are never cached,
	// so a poisoned run cannot poison later jobs.
	InjectPanic int `json:"inject_panic,omitempty"`
}

// Grid resolves the spec into the sweep grid it declares. defaultInstr
// fills in a zero budget. The resolution is pure, so a persisted spec
// rebuilds the identical grid (same name, same unit keys) after a restart
// — and a cluster worker handed the same spec resolves the identical
// grid the coordinator sharded, which is what makes coordinator-side
// journaling by run key sound. A grid of more than maxJobUnits units is
// refused from its axis lengths, before any name is resolved; submission,
// recovery and joined workers all resolve specs here.
func (s JobSpec) ResolveGrid(defaultInstr uint64) (sweep.Grid, error) {
	instr := s.Instr
	if instr == 0 {
		instr = defaultInstr
	}
	switch s.Kind {
	case "run":
		p, ok := workload.ByName(s.Bench)
		if !ok {
			return sweep.Grid{}, fmt.Errorf("unknown bench %q", s.Bench)
		}
		base := config.GoldenCove()
		g := sweep.Grid{
			Name:     "run",
			Instr:    instr,
			Base:     base,
			Profiles: []workload.Profile{p},
		}
		if s.Scheme != "" {
			sc, err := config.ParseScheme(s.Scheme)
			if err != nil {
				return sweep.Grid{}, err
			}
			g.Schemes = []config.ReleaseScheme{sc}
		}
		if s.Regs != 0 {
			g.PhysRegs = []int{s.Regs}
		}
		if s.Sample != "" {
			if _, err := checkpoint.ParseMode(s.Sample); err != nil {
				return sweep.Grid{}, err
			}
			g.SampleModes = []string{s.Sample}
		}
		return g, nil
	case "grid":
		if s.Grid != "" {
			g, err := sweep.GridByName(s.Grid, instr)
			if err != nil {
				return sweep.Grid{}, err
			}
			if err := checkUnits(len(g.Profiles), len(g.PhysRegs), len(g.Schemes), len(s.SampleModes)); err != nil {
				return sweep.Grid{}, err
			}
			g.SampleModes, err = parseSampleModes(s.SampleModes)
			if err != nil {
				return sweep.Grid{}, err
			}
			return g, nil
		}
		if len(s.Profiles) == 0 {
			return sweep.Grid{}, fmt.Errorf("custom grid declares no profiles")
		}
		if err := checkUnits(len(s.Profiles), len(s.PhysRegs), len(s.Schemes), len(s.SampleModes)); err != nil {
			return sweep.Grid{}, err
		}
		modes, err := parseSampleModes(s.SampleModes)
		if err != nil {
			return sweep.Grid{}, err
		}
		g := sweep.Grid{
			Name:  s.Name,
			Instr: instr,
			Base:  config.GoldenCove(),
		}
		if g.Name == "" {
			g.Name = "custom"
		}
		for _, name := range s.Profiles {
			p, ok := workload.ByName(name)
			if !ok {
				return sweep.Grid{}, fmt.Errorf("unknown profile %q", name)
			}
			g.Profiles = append(g.Profiles, p)
		}
		g.PhysRegs = s.PhysRegs
		for _, name := range s.Schemes {
			sc, err := config.ParseScheme(name)
			if err != nil {
				return sweep.Grid{}, err
			}
			g.Schemes = append(g.Schemes, sc)
		}
		g.SampleModes = modes
		return g, nil
	}
	return sweep.Grid{}, fmt.Errorf("unknown job kind %q (want run or grid)", s.Kind)
}

// maxJobUnits bounds the units one job may declare, at more than five
// times the full preset's 736. A grid's units cost memory in proportion to
// their number from the moment they are expanded, so admission counts them
// from the axis lengths first.
const maxJobUnits = 4096

// checkUnits refuses a grid whose axes multiply past maxJobUnits; an empty
// axis counts as one entry, as sweep.Grid expands it. It stops multiplying
// once the running product passes the bound, so long axes cannot overflow.
func checkUnits(axes ...int) error {
	n := 1
	for _, a := range axes {
		if n *= max(a, 1); n > maxJobUnits {
			return fmt.Errorf("grid declares more than %d units", maxJobUnits)
		}
	}
	return nil
}

// parseSampleModes validates a spec's sample_modes axis and maps the
// "exact" spelling to the empty string sweep.Grid uses internally.
func parseSampleModes(specs []string) ([]string, error) {
	var modes []string
	for _, m := range specs {
		if m == "exact" || m == "" {
			modes = append(modes, "")
			continue
		}
		if _, err := checkpoint.ParseMode(m); err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

// Job states. A job is queued until the first of its units is leased to a
// worker, then running, then one of the terminal states; interrupted is the
// shutdown parking state a restarted daemon resumes from.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// terminal reports whether a state is final for this daemon process.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Event is one line of a job's NDJSON/SSE stream.
type Event struct {
	Type     string             `json:"type"` // "status" or "progress"
	Job      string             `json:"job"`
	State    string             `json:"state,omitempty"`
	Error    string             `json:"error,omitempty"`
	Progress *obs.SweepProgress `json:"progress,omitempty"`
}

// Status is the job view returned by the HTTP API.
type Status struct {
	ID          string            `json:"id"`
	State       string            `json:"state"`
	Spec        JobSpec           `json:"spec"`
	Grid        string            `json:"grid"`
	Total       int               `json:"total"`
	Error       string            `json:"error,omitempty"`
	Progress    obs.SweepProgress `json:"progress"`
	SubmittedAt string            `json:"submitted_at,omitempty"`
}
