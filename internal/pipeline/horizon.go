package pipeline

import "atr/internal/isa"

// The event horizon. Most cycles of a cold-start run change nothing: the
// ROB head waits on a DRAM fill, the ready heaps are empty, fetch is held on
// an I-cache miss, and every stage finds the same reason to do nothing that
// it found the cycle before. Each stage bumps c.acts whenever it changes
// machine state: fetch (I-cache access), rename, a ready-heap pop (issue or
// park), a non-empty wheel slot firing, an STD capture, a precommit or
// commit, an exception, a pending interrupt, or a delayed redefine signal
// falling due. A step that leaves c.acts unchanged was quiescent, and the
// state it left behind repeats until a time-triggered condition fires, so
// RunFor jumps the clock straight to that cycle. The scan scheduler and
// step() itself never jump; TestSchedulerEquivalence* compare the two.

// skipQuiescent jumps the clock over the quiescent cycles that follow a
// quiescent step, at most budget of them, and returns how many it skipped.
// Each skipped cycle is credited exactly as stepping it would have counted:
// the cycle itself, the watchdog, register-file occupancy, and a rename
// stall when the quiescent step stalled on the free list. A quiescent step
// never halts the program (the ROB and the decode queue empty only through
// commit, rename or a flush), so RunFor would not have stopped here.
func (c *CPU) skipQuiescent(budget uint64, renameStalled bool) uint64 {
	k := c.quietSpan(min(budget, stuckLimit-c.runStuck))
	if k == 0 {
		return 0
	}
	c.cycle += k
	c.runStuck += k
	c.occupancySum += k * uint64(c.Engine.PhysRegsPerClass()-c.Engine.FreeCount(isa.ClassGPR))
	if renameStalled {
		c.renameStall += k
	}
	c.skipped += k
	return k
}

// quietSpan returns how many cycles, from c.cycle and at most limit, pass
// before any stage can act, given that the previous step was quiescent. The
// bounds are the time-triggered conditions of each stage:
//
//   - the next non-empty completion-wheel slot, and the next wheel
//     revolution (overflow migration) while the overflow list is non-empty;
//   - the cycle fetch's I-cache hold expires, and the cycle the decode
//     queue's head may rename, when either is still ahead;
//   - the earliest due delayed redefine signal (Engine.Tick);
//   - the next interrupt boundary;
//   - the cycle before the next sampler boundary, which step records after
//     advancing the clock.
//
// Everything else a stage waits on (a free ROB, RS, LSQ or register slot, a
// ready source, a redirect) changes only through another stage's action.
func (c *CPU) quietSpan(limit uint64) uint64 {
	now := c.cycle
	end := now + limit
	if h := c.fetchHold; h >= now && h < end {
		end = h
	}
	if c.dqLen() > 0 {
		if r := c.dqFront().renameable; r >= now && r < end {
			end = r
		}
	}
	if due, ok := c.Engine.NextRedefineDue(); ok && due < end {
		end = due
	}
	if iv := uint64(c.cfg.InterruptInterval); iv > 0 {
		if b := (now + iv - 1) / iv * iv; b < end {
			end = b
		}
	}
	if c.obs != nil && c.obs.Sampler != nil {
		iv := c.obs.Sampler.Interval()
		if b := (now/iv+1)*iv - 1; b < end {
			end = b
		}
	}
	s := c.ev
	if len(s.overflow) > 0 {
		if m := (now + wheelMask) &^ wheelMask; m < end {
			end = m
		}
	}
	// One revolution covers every slot: the wheel holds nothing further out.
	for t, stop := now, min(end, now+wheelSize); t < stop; t++ {
		if len(s.wheel[t&wheelMask]) > 0 {
			return t - now
		}
	}
	return end - now
}
