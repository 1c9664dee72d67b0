// Package batch runs K simulator configurations in lockstep over one shared
// immutable program image. The ATR evaluation is sweep-shaped — the Fig 10
// grid runs every benchmark profile under 2 register-file sizes × 4 release
// schemes — so consecutive sweep units differ only in backend configuration
// while the frontend inputs (the decoded program, its memory image, its
// branch structure) are byte-for-byte identical. Lanes share exactly that
// read-only image; everything a lane mutates (rename state, ROB, caches,
// memory values, statistics) is privately owned. Execution interleaves
// lanes in cycle slices, so the shared image and the simulator's own code
// stay hot across lanes while each lane's state enjoys a full slice of
// temporal locality.
//
// Bit-identity is by construction: lanes never communicate, and
// pipeline.RunFor reaches identical state at every cycle it steps and at
// every slice boundary no matter how the budget slices a run (its clock
// jumps over quiescent cycles, but never past the end of a slice), so a
// lane's Result is byte-identical to running its configuration alone with
// pipeline.Run. TestBatchMatchesSolo enforces this across schemes,
// register-file sizes, and schedulers.
package batch

import (
	"time"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/program"
)

// DefaultSlice is the lockstep granularity in cycles. Large enough that a
// lane amortizes its working-set warmup over many simulated cycles, small
// enough that the shared program image is revisited while still cached.
const DefaultSlice = 4096

// DefaultLanes is the auto lane count used when a caller enables batching
// without choosing K. The Fig 10 scheme axis is 4 wide, so profile-major
// grids split per profile into whole scheme groups.
const DefaultLanes = 4

// Options configures a lockstep batch.
type Options struct {
	// Kind selects the scheduler implementation for every lane.
	Kind pipeline.SchedulerKind

	// Slice is the per-lane cycle budget of one lockstep round; 0 selects
	// DefaultSlice.
	Slice uint64

	// Lifetimes turns on every lane engine's register-lifetime ledger
	// (core.Engine.TrackLifetimes) for callers that read it afterwards.
	Lifetimes bool
}

// Lane is one finished configuration: its result plus the CPU that
// produced it, so callers can extract ledger/activity statistics exactly
// as they would after a solo pipeline.Run.
type Lane struct {
	CPU    *pipeline.CPU
	Result pipeline.Result
}

// Perf attributes the batch's wall clock to phases: constructing lane
// machines (Setup) and lockstep simulation (Exec).
type Perf struct {
	SetupSeconds float64
	ExecSeconds  float64
	Lanes        int
}

// Run simulates every configuration for instr instructions over the shared
// program, in lockstep cycle slices, and returns the lanes in input order.
func Run(prog *program.Program, cfgs []config.Config, instr uint64, opt Options) ([]Lane, Perf) {
	slice := opt.Slice
	if slice == 0 {
		slice = DefaultSlice
	}
	perf := Perf{Lanes: len(cfgs)}

	t0 := time.Now()
	lanes := make([]Lane, len(cfgs))
	for i, cfg := range cfgs {
		lanes[i].CPU = pipeline.NewWithScheduler(cfg, prog, opt.Kind)
		if opt.Lifetimes {
			lanes[i].CPU.Engine.TrackLifetimes()
		}
	}
	t1 := time.Now()
	perf.SetupSeconds = t1.Sub(t0).Seconds()

	done := make([]bool, len(lanes))
	remaining := len(lanes)
	for remaining > 0 {
		for i := range lanes {
			if done[i] {
				continue
			}
			if lanes[i].CPU.RunFor(instr, slice) {
				lanes[i].Result = lanes[i].CPU.Finish()
				done[i] = true
				remaining--
			}
		}
	}
	perf.ExecSeconds = time.Since(t1).Seconds()
	return lanes, perf
}
