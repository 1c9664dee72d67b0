package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"atr/internal/config"
)

// Manifest schema identification. Bump ManifestVersion on any
// backwards-incompatible field change; DecodeManifest rejects mismatches.
const (
	ManifestSchema  = "atr-run-manifest"
	ManifestVersion = 1
)

// BuildInfo identifies the binary that produced a manifest.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"revision,omitempty"` // VCS revision (git describe analog)
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"` // dirty working tree
}

// Build returns the current binary's build identification, read from the
// Go build-info records embedded by the toolchain (no git invocation).
func Build() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// BenchmarkInfo names the simulated workload.
type BenchmarkInfo struct {
	Name         string `json:"name"`
	Class        string `json:"class"`
	Seed         uint64 `json:"seed"`
	StaticInstrs int    `json:"static_instrs,omitempty"`
}

// RunResult mirrors pipeline.Result (obs cannot import pipeline, which
// imports obs for its hooks).
type RunResult struct {
	Cycles           uint64  `json:"cycles"`
	Committed        uint64  `json:"committed"`
	IPC              float64 `json:"ipc"`
	Mispredicts      uint64  `json:"mispredicts"`
	Flushes          uint64  `json:"flushes"`
	Exceptions       uint64  `json:"exceptions"`
	Interrupts       uint64  `json:"interrupts"`
	RenameStalls     uint64  `json:"rename_stalls"`
	BranchAccuracy   float64 `json:"branch_accuracy"`
	IndirectAccuracy float64 `json:"indirect_accuracy"`
	L1DHitRate       float64 `json:"l1d_hit_rate"`
	AvgRegsLive      float64 `json:"avg_regs_live"`
	Halted           bool    `json:"halted"`
}

// LedgerSummary is the register-lifetime ledger's figure-level outputs.
type LedgerSummary struct {
	Completed      uint64  `json:"completed"`
	InUse          float64 `json:"in_use"`
	Unused         float64 `json:"unused"`
	VerifiedUnused float64 `json:"verified_unused"`
	NonBranch      float64 `json:"non_branch"`
	NonExcept      float64 `json:"non_except"`
	Atomic         float64 `json:"atomic"`
	GapRedefine    float64 `json:"gap_redefine"`
	GapConsume     float64 `json:"gap_consume"`
	GapCommit      float64 `json:"gap_commit"`
	ConsumerMean   float64 `json:"consumer_mean"`
}

// PerfInfo records host-side simulation speed.
type PerfInfo struct {
	WallSeconds float64 `json:"wall_seconds"`
	InstrPerSec float64 `json:"instr_per_sec"`
	// CyclesPerSec is simulated cycles per wall-clock second; together
	// with InstrPerSec it tracks scheduler-rework regressions.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// AllocsPerInstr is heap allocations per committed instruction over
	// the whole run, including warmup (steady state is zero).
	AllocsPerInstr float64 `json:"allocs_per_instr,omitempty"`
}

// SampleInfo records sampled-simulation provenance: how the run's detail
// windows were scheduled, how much of the instruction stream was simulated
// in detail vs. only fast-forwarded, and the 95%-confidence relative error
// bars the window variance implies for the extrapolated statistics. Its
// presence marks every statistic in Result as an estimate.
type SampleInfo struct {
	Mode             string  `json:"mode"` // e.g. "systematic:100000/2000/500"
	Period           uint64  `json:"period"`
	Window           uint64  `json:"window"`
	Warmup           uint64  `json:"warmup"`
	Windows          int     `json:"windows"`
	DetailInstr      uint64  `json:"detail_instr"`
	FFInstr          uint64  `json:"ff_instr"`
	IPCRelErr        float64 `json:"ipc_rel_err"`
	MispredictRelErr float64 `json:"mispredict_rel_err,omitempty"`
	BranchAccRelErr  float64 `json:"branch_acc_rel_err,omitempty"`
	L1DHitRelErr     float64 `json:"l1d_hit_rel_err,omitempty"`
}

// TraceInfo summarizes an event trace emitted alongside a manifest.
type TraceInfo struct {
	JSONLPath string `json:"jsonl_path,omitempty"`
	O3Path    string `json:"o3_path,omitempty"`
	Uops      uint64 `json:"uops"`
	Commits   uint64 `json:"commits"`
	Releases  uint64 `json:"releases"`
}

// Manifest is the versioned machine-readable record of one simulation run:
// the full machine configuration, workload identity, build provenance,
// results, counters, and optional time series. Sweeps serialized this way
// are diffable artifacts.
type Manifest struct {
	Schema    string            `json:"schema"`
	Version   int               `json:"version"`
	CreatedAt string            `json:"created_at,omitempty"` // RFC3339
	Build     BuildInfo         `json:"build"`
	Benchmark BenchmarkInfo     `json:"benchmark"`
	Config    config.Config     `json:"config"`
	Result    RunResult         `json:"result"`
	Ledger    LedgerSummary     `json:"ledger"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
	Perf      PerfInfo          `json:"perf"`
	Samples   []Sample          `json:"samples,omitempty"`
	Trace     *TraceInfo        `json:"trace,omitempty"`
	// Sample, when present, marks the run as sampled: Result holds
	// extrapolated estimates rather than exact counts. Exact runs never
	// emit this block, so the two can never be confused.
	Sample *SampleInfo `json:"sample,omitempty"`
}

// NewManifest returns a manifest with schema identification and build
// provenance filled in.
func NewManifest() Manifest {
	return Manifest{Schema: ManifestSchema, Version: ManifestVersion, Build: Build()}
}

// Validate checks schema identification and structural consistency.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("obs: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Version != ManifestVersion {
		return fmt.Errorf("obs: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Benchmark.Name == "" {
		return fmt.Errorf("obs: manifest missing benchmark name")
	}
	if err := m.Config.Validate(); err != nil {
		return fmt.Errorf("obs: manifest config: %w", err)
	}
	if m.Result.Cycles == 0 && m.Result.Committed > 0 {
		return fmt.Errorf("obs: manifest result committed %d instructions in 0 cycles", m.Result.Committed)
	}
	var sampled uint64
	for _, s := range m.Samples {
		sampled += s.Committed
	}
	if len(m.Samples) > 0 && sampled != m.Result.Committed {
		return fmt.Errorf("obs: manifest samples sum to %d committed, result says %d", sampled, m.Result.Committed)
	}
	if m.Trace != nil && m.Trace.Commits != m.Result.Committed {
		return fmt.Errorf("obs: manifest trace has %d commit events, result says %d", m.Trace.Commits, m.Result.Committed)
	}
	return nil
}

// Encode writes the manifest as indented JSON.
func (m Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeManifest parses and validates a manifest.
func DecodeManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("obs: decode manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}
