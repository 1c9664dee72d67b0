package pipeline

import (
	"math/rand"
	"sync"
	"testing"

	"atr/internal/config"
	"atr/internal/workload"
)

// TestSlabChurnGenerationTags hammers the scheduler slab's free-list
// recycling directly: slots are acquired and released in random order for
// many times the slab capacity, and every outstanding schedRef taken
// before a slot's release must dangle (deref -> nil) forever after, no
// matter how many times the slot is reissued. This is the aliasing
// contract the wait lists, ready heaps, wheel slots, and stall lists all
// lean on instead of pointers.
func TestSlabChurnGenerationTags(t *testing.T) {
	const (
		slabCap = 64
		steps   = 100_000
	)
	rng := rand.New(rand.NewSource(0x51AB))
	s := newEvsched(8, slabCap)

	type liveEnt struct {
		u   *uop
		ref schedRef
	}
	var live []liveEnt
	var stale []schedRef
	reissues := make([]int, slabCap)

	for step := 0; step < steps; step++ {
		if len(live) == 0 || (len(live) < slabCap && rng.Intn(2) == 0) {
			u := s.getUop()
			u.seq = uint64(step)
			reissues[u.idx]++
			live = append(live, liveEnt{u, u.ref()})
		} else {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			s.putUop(e.u)
			stale = append(stale, e.ref)
			if len(stale) > 4*slabCap {
				stale = stale[len(stale)-4*slabCap:]
			}
		}
		// Live refs resolve to their own uop; every retained stale ref
		// must dangle even though its slot is likely live again under a
		// newer generation.
		for _, e := range live {
			if got := s.deref(e.ref); got != e.u {
				t.Fatalf("step %d: live ref {idx %d gen %d} resolved to %p, want %p",
					step, e.ref.idx, e.ref.gen, got, e.u)
			}
			if e.u.seq != e.ref.seq {
				t.Fatalf("step %d: slot %d seq clobbered to %d while live (want %d)",
					step, e.ref.idx, e.u.seq, e.ref.seq)
			}
		}
		for _, r := range stale {
			if u := s.deref(r); u != nil {
				t.Fatalf("step %d: stale ref {idx %d gen %d} resolved to live uop seq %d (slot aliased)",
					step, r.idx, r.gen, u.seq)
			}
		}
	}

	recycled := 0
	for _, n := range reissues {
		if n > 1 {
			recycled++
		}
	}
	if recycled < slabCap/2 {
		t.Fatalf("churn too shallow: only %d/%d slots recycled", recycled, slabCap)
	}
	if got := len(s.freeIdx) + len(live); got != slabCap {
		t.Fatalf("free list + live = %d slots, want %d (slot leaked or duplicated)", got, slabCap)
	}
}

// TestSlabChurnUnderFlushLoad drives whole pipelines through flush-heavy
// workloads — the path that recycles uops in bulk mid-flight — on
// concurrent goroutines, then re-checks determinism: each goroutine's
// result must equal the solo reference for its config. Under -race this
// doubles as proof that slab recycling touches no cross-CPU state, the
// property the sweep engine's lockstep lanes depend on.
func TestSlabChurnUnderFlushLoad(t *testing.T) {
	prog := workload.Micro(5).Generate()
	const instr = 4000
	cfgs := []config.Config{
		config.GoldenCove().WithPhysRegs(48).WithScheme(config.SchemeATR),
		config.GoldenCove().WithPhysRegs(48).WithScheme(config.SchemeCombined),
		config.GoldenCove().WithPhysRegs(64).WithScheme(config.SchemeNonSpecER),
		config.GoldenCove().WithPhysRegs(96).WithScheme(config.SchemeBaseline),
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = NewWithScheduler(cfg, prog, SchedulerEvent).Run(instr)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := cfgs[w%len(cfgs)]
			cpu := NewWithScheduler(cfg, prog, SchedulerEvent)
			res := cpu.Run(instr)
			if res != want[w%len(cfgs)] {
				t.Errorf("goroutine %d: result diverged from solo reference", w)
			}
			if err := cpu.Engine.CheckInvariants(); err != nil {
				t.Errorf("goroutine %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}
