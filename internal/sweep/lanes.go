package sweep

import (
	"time"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/program"
)

// laneWidth caps a lockstep group. The Fig 10 scheme axis is 4 wide, so
// profile-major grids split per profile into whole scheme groups.
const laneWidth = 4

// laneSlice is the lockstep granularity in cycles: large enough that a lane
// amortizes its working-set warmup over many simulated cycles, small enough
// that the shared program image is revisited while still cached.
const laneSlice = 4096

// runLanes simulates every configuration for instr instructions over the
// shared program on the event scheduler, interleaving the lanes in
// laneSlice-cycle slices, and returns the results in input order with the
// wall clock spent building the lanes (setup) and simulating them (exec).
//
// Lanes share only the read-only program image; everything a lane mutates
// (rename state, ROB, caches, memory values, statistics) is its own. So
// the result is bit-identical by construction: lanes never communicate,
// and pipeline.RunFor reaches identical state at every cycle it steps and
// at every slice boundary no matter how a budget slices a run (its clock
// jumps over quiescent cycles, but never past the end of a slice), so each
// lane's Result equals running its configuration alone with
// pipeline.Run. TestBatchMatchesSolo enforces this across schemes and
// register-file sizes.
func runLanes(prog *program.Program, cfgs []config.Config, instr uint64) (res []pipeline.Result, setup, exec time.Duration) {
	t0 := time.Now()
	cpus := make([]*pipeline.CPU, len(cfgs))
	for i, cfg := range cfgs {
		cpus[i] = pipeline.New(cfg, prog)
	}
	t1 := time.Now()
	res = make([]pipeline.Result, len(cfgs))
	done := make([]bool, len(cpus))
	for running := len(cpus); running > 0; {
		for i, cpu := range cpus {
			if !done[i] && cpu.RunFor(instr, laneSlice) {
				res[i] = cpu.Finish()
				done[i] = true
				running--
			}
		}
	}
	return res, t1.Sub(t0), time.Since(t1)
}
