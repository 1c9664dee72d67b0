// Package config describes the simulated machine. The default configuration
// reproduces Table 1 of the paper: an Intel Golden Cove-like core at 3 GHz
// with a 6-wide frontend, 8-wide retirement, a 512-entry ROB, and the listed
// cache hierarchy.
package config

import "fmt"

// ReleaseScheme selects the physical-register release policy under study.
type ReleaseScheme int

// The four schemes compared in Figure 10.
const (
	// SchemeBaseline releases a previous ptag when the redefining
	// instruction commits (conventional renaming).
	SchemeBaseline ReleaseScheme = iota
	// SchemeNonSpecER additionally releases a ptag early once it is fully
	// consumed and its redefining instruction has precommitted
	// (non-speculative early release, §2.3).
	SchemeNonSpecER
	// SchemeATR releases ptags allocated inside atomic commit regions as
	// soon as they are redefined and fully consumed, even while older
	// branches are unresolved (§4).
	SchemeATR
	// SchemeCombined applies both ATR and non-speculative early release
	// (§4.3).
	SchemeCombined
)

var schemeNames = map[ReleaseScheme]string{
	SchemeBaseline:  "baseline",
	SchemeNonSpecER: "nonspec-er",
	SchemeATR:       "atomic",
	SchemeCombined:  "combined",
}

func (s ReleaseScheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme?%d", int(s))
}

// ParseScheme converts a scheme name (as printed by String) back to a value.
func ParseScheme(name string) (ReleaseScheme, error) {
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("config: unknown release scheme %q", name)
}

// Schemes lists all release schemes in evaluation order.
func Schemes() []ReleaseScheme {
	return []ReleaseScheme{SchemeBaseline, SchemeNonSpecER, SchemeATR, SchemeCombined}
}

// InterruptMode selects how asynchronous interrupts are taken (§4.1).
type InterruptMode int

const (
	// InterruptDrain stops fetch and drains the ROB before vectoring; ATR
	// requires no changes in this mode.
	InterruptDrain InterruptMode = iota
	// InterruptFlush flushes the ROB, but with ATR it must first wait until
	// the active-atomic-region counter reaches zero.
	InterruptFlush
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Latency   int // access latency in cycles, inclusive of tag match
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Config is the full machine description.
type Config struct {
	// Frontend.
	FetchWidth    int // instructions fetched per cycle
	DecodeWidth   int
	RenameWidth   int
	FetchTargets  int // fetch targets (basic-block descriptors) per cycle
	FetchQueue    int // fetch-target queue entries
	DecodeQueue   int // decoded micro-op queue entries
	BTBEntries    int
	IBTBEntries   int // indirect branch target buffer
	RASEntries    int
	TageHistLen   int // longest TAGE history length (0 = 256)
	TageTables    int // number of tagged tables (0 = 6, at most MaxTageTables)
	TageTableBits int // log2 entries per tagged table (0 = 10, at most MaxTageTableBits)

	// Backend.
	IssueWidth    int // max micro-ops issued to FUs per cycle
	RetireWidth   int
	ROBSize       int
	RSSize        int // reservation station entries
	LoadQueue     int
	StoreQueue    int
	NumALU        int
	NumLoadPorts  int
	NumStorePorts int

	// Register files. PhysRegs applies to both the scalar and the FP file,
	// matching the paper's single "register file size" sweep axis. A value
	// of 0 means effectively infinite (the Fig 1 ideal configuration).
	PhysRegs int

	// Release policy under study.
	Scheme ReleaseScheme

	// RedefineDelay pipelines ATR's redefinition signal by N cycles
	// (Fig 13 sensitivity; 0 = combinational).
	RedefineDelay int

	// ConsumerCounterBits is the width of the per-preg consumer counter;
	// the all-ones value is reserved as no-early-release (§4.2.2, Fig 12
	// studies this width). 0 means unbounded (infinite counter).
	ConsumerCounterBits int

	// WalkRecovery selects walk-based RAT recovery instead of per-branch
	// checkpoints (§4.2.1 describes both).
	WalkRecovery bool

	// CheckpointBudget bounds the number of outstanding SRT checkpoints.
	// 0 checkpoints every mispredictable control instruction; a positive
	// value checkpoints only low-confidence branches and indirect
	// transfers up to the budget (§4.2.1), with recovery at a
	// non-checkpointed branch restoring the nearest older checkpoint and
	// replaying surviving mappings forward (or falling back to the
	// backward walk when no checkpoint is older).
	CheckpointBudget int

	// MoveElimination enables register-move elimination (§6): moves rename
	// their destination to the source's physical register instead of
	// allocating, with per-register reference counts; every release
	// decrements and the register frees at zero. Composes with ATR as the
	// paper describes ("decrement ref counts on early-release").
	MoveElimination bool

	// MemPrecommitAtExec controls when loads and stores stop blocking
	// the precommit pointer: true (default, matching the paper — Fig 5
	// shows a load precommitting at its execute cycle, well before its
	// data returns) means at address translation; false is the
	// conservative wait-for-completion variant, kept as an ablation.
	MemPrecommitAtExec bool

	// Interrupts. InterruptInterval > 0 injects an asynchronous interrupt
	// every that many cycles; InterruptCost models handler latency.
	InterruptMode     InterruptMode
	InterruptInterval int
	InterruptCost     int

	// FaultRate injects a synchronous exception on roughly one in FaultRate
	// faultable instructions (0 disables). Used by precise-exception tests.
	FaultRate int

	// Memory hierarchy (Table 1).
	L1I            CacheConfig
	L1D            CacheConfig
	L2             CacheConfig
	LLC            CacheConfig
	MemLatency     int // DRAM access latency in cycles
	MSHRs          int // outstanding L1D misses
	StreamPrefetch bool
}

// GoldenCove returns the Table 1 configuration: 6-wide fetch/decode, 8-wide
// retirement, 512-entry ROB, 160-entry reservation station, 5 ALU / 3 load /
// 2 store ports, 96-entry load buffer, 64-entry store buffer, and the listed
// cache sizes and latencies. PhysRegs defaults to 280 (Golden Cove's integer
// file size quoted in the introduction).
func GoldenCove() Config {
	return Config{
		FetchWidth:    6,
		DecodeWidth:   6,
		RenameWidth:   6,
		FetchTargets:  2,
		FetchQueue:    24,
		DecodeQueue:   48,
		BTBEntries:    12 * 1024,
		IBTBEntries:   3 * 1024,
		RASEntries:    32,
		TageHistLen:   256,
		TageTables:    6,
		TageTableBits: 10,

		IssueWidth:    10,
		RetireWidth:   8,
		ROBSize:       512,
		RSSize:        160,
		LoadQueue:     96,
		StoreQueue:    64,
		NumALU:        5,
		NumLoadPorts:  3,
		NumStorePorts: 2,

		PhysRegs:            280,
		MemPrecommitAtExec:  true,
		Scheme:              SchemeBaseline,
		RedefineDelay:       0,
		ConsumerCounterBits: 3,

		L1I:            CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 3},
		L1D:            CacheConfig{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64, Latency: 3},
		L2:             CacheConfig{SizeBytes: 1280 << 10, Ways: 10, LineBytes: 64, Latency: 14},
		LLC:            CacheConfig{SizeBytes: 3 << 20, Ways: 12, LineBytes: 64, Latency: 40},
		MemLatency:     200,
		MSHRs:          32,
		StreamPrefetch: true,
	}
}

// WithScheme returns a copy of c with the release scheme set.
func (c Config) WithScheme(s ReleaseScheme) Config {
	c.Scheme = s
	return c
}

// WithPhysRegs returns a copy of c with the physical register file size set.
func (c Config) WithPhysRegs(n int) Config {
	c.PhysRegs = n
	return c
}

// Bounds on the TAGE geometry. The predictor carries one folded copy of
// the global history per (history length, width) pair it reads, in storage
// fixed at compile time so a history snapshot copies without allocating:
// these bound how many pairs there can be and how wide a fold is.
const (
	MaxTageTables    = 8
	MaxTageTableBits = 16
)

// Validate checks structural consistency and returns a descriptive error for
// the first violated constraint.
func (c Config) Validate() error {
	check := func(cond bool, format string, args ...any) error {
		if !cond {
			return fmt.Errorf("config: "+format, args...)
		}
		return nil
	}
	checks := []error{
		check(c.FetchWidth > 0, "FetchWidth must be positive"),
		check(c.RenameWidth > 0, "RenameWidth must be positive"),
		check(c.RetireWidth > 0, "RetireWidth must be positive"),
		check(c.ROBSize >= c.RenameWidth, "ROBSize %d < RenameWidth %d", c.ROBSize, c.RenameWidth),
		check(c.RSSize > 0, "RSSize must be positive"),
		check(c.LoadQueue > 0 && c.StoreQueue > 0, "load/store queues must be positive"),
		check(c.NumALU > 0 && c.NumLoadPorts > 0 && c.NumStorePorts > 0, "functional unit counts must be positive"),
		check(c.PhysRegs == 0 || c.PhysRegs >= 40,
			"PhysRegs %d too small: need at least arch state (33) plus one rename group", c.PhysRegs),
		check(c.ConsumerCounterBits >= 0 && c.ConsumerCounterBits <= 16, "ConsumerCounterBits out of range"),
		check(c.RedefineDelay >= 0 && c.RedefineDelay <= 8, "RedefineDelay out of range"),
		check(c.Scheme >= SchemeBaseline && c.Scheme <= SchemeCombined, "unknown scheme %d", int(c.Scheme)),
		check(c.TageHistLen >= 0, "TageHistLen must not be negative"),
		check(c.TageTables >= 0 && c.TageTables <= MaxTageTables,
			"TageTables %d out of range [0, %d]", c.TageTables, MaxTageTables),
		check(c.TageTableBits >= 0 && c.TageTableBits <= MaxTageTableBits,
			"TageTableBits %d out of range [0, %d]", c.TageTableBits, MaxTageTableBits),
	}
	for _, lvl := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"LLC", c.LLC}} {
		checks = append(checks,
			check(lvl.c.SizeBytes > 0 && lvl.c.Ways > 0 && lvl.c.LineBytes > 0,
				"%s cache has non-positive geometry", lvl.name),
			check(lvl.c.SizeBytes%(lvl.c.Ways*lvl.c.LineBytes) == 0,
				"%s cache size %d not divisible by way*line", lvl.name, lvl.c.SizeBytes),
			check(lvl.c.Latency > 0, "%s latency must be positive", lvl.name))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxConsumerCount returns the saturation value of the consumer counter; the
// value itself is reserved as no-early-release. Returns -1 for an unbounded
// counter.
func (c Config) MaxConsumerCount() int {
	if c.ConsumerCounterBits == 0 {
		return -1
	}
	return 1<<c.ConsumerCounterBits - 1
}
