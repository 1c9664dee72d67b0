package main

import (
	"fmt"
	"time"

	"atr/internal/bpred"
	"atr/internal/cache"
	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/core"
	"atr/internal/isa"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/sweep"
)

// kernelInstr is how many committed instructions of each profile are
// recorded once and replayed through each kernel.
const kernelInstr = 20_000

// renameWindow is the number of instructions the rename replay keeps
// between rename and commit, standing in for the ROB.
const renameWindow = 64

// stream is one profile's program and its recorded committed stream.
type stream struct {
	name string
	prog *program.Program
	recs []program.Record
}

// kernelCost is one profile's replayed cost, in ns per committed
// instruction, of each kernel the workloads spend their time in.
type kernelCost struct {
	emu, predict, warm, access, touch, rename float64
}

// kernelCosts holds the replays' results for attribution.
type kernelCosts struct {
	perProfile map[string]kernelCost
	all        kernelCost // over every profile's stream
}

// replayKernels records every profile's instruction, branch and address
// streams once, then replays them through the public emulator, predictor,
// cache and rename-engine functions, timing each kernel. The replays cover
// committed instructions only (no wrong path), so the attribution shares
// derived from them are lower bounds.
func (r *run) replayKernels(g sweep.Grid) error {
	cfg := g.Base.WithPhysRegs(64)
	t0 := time.Now()
	streams := make([]stream, len(g.Profiles))
	for i, p := range g.Profiles {
		streams[i] = stream{name: p.Name, prog: p.Generate()}
	}
	tGen := time.Now()
	r.set("workload.generate_ms", ms(tGen.Sub(t0)))
	r.tr.add("workload.generate", 0, t0, tGen, fmt.Sprintf("%d profiles", len(streams)))
	for i := range streams {
		streams[i].recs = program.NewEmulator(streams[i].prog).Run(kernelInstr)
	}
	r.tr.add("kernel.record", 0, tGen, time.Now(), "")

	kc := kernelCosts{perProfile: make(map[string]kernelCost)}
	var tot struct {
		instr, ctrl, accesses, touches           float64
		emu, predict, warm, access, touch, newNs float64
		rename                                   [4]float64
	}
	schemes := config.Schemes()
	for _, s := range streams {
		n := float64(len(s.recs))
		ctrl, accesses, touches := streamMix(s)
		emuNs := r.kernel("program.emu", s.name, replayEmu(s))
		predictNs := r.kernel("bpred.predict", s.name, replayPredict(cfg, s))
		warmNs := r.kernel("bpred.warm", s.name, replayWarm(cfg, s))
		accessNs := r.kernel("cache.access", s.name, replayAccess(cfg, s))
		touchNs := r.kernel("cache.touch", s.name, replayTouch(cfg, s))
		var renameNs float64
		for i, sc := range schemes {
			var err error
			loop := replayRename(cfg.WithScheme(sc), s, &err)
			ns := r.kernel("core.rename."+sc.String(), s.name, loop)
			if err != nil {
				return fmt.Errorf("rename replay %s/%s: %w", s.name, sc, err)
			}
			tot.rename[i] += ns
			renameNs += ns / float64(len(schemes))
		}
		newNs := r.kernel("pipeline.new", s.name, func() {
			pipeline.NewWithScheduler(cfg.WithScheme(config.SchemeCombined), s.prog, pipeline.SchedulerEvent)
		})
		kc.perProfile[s.name] = kernelCost{
			emu: emuNs / n, predict: predictNs / n, warm: warmNs / n,
			access: accessNs / n, touch: touchNs / n, rename: renameNs / n,
		}
		tot.instr += n
		tot.ctrl += ctrl
		tot.accesses += accesses
		tot.touches += touches
		tot.emu += emuNs
		tot.predict += predictNs
		tot.warm += warmNs
		tot.access += accessNs
		tot.touch += touchNs
		tot.newNs += newNs
	}
	r.set("program.emu_ns_per_instr", tot.emu/tot.instr)
	r.set("bpred.predict_ns", tot.predict/tot.ctrl)
	r.set("bpred.warm_ns", tot.warm/tot.ctrl)
	r.set("cache.access_ns", tot.access/tot.accesses)
	r.set("cache.touch_ns", tot.touch/tot.touches)
	var renameAll float64
	for i, sc := range schemes {
		r.set("core.rename_ns."+sc.String(), tot.rename[i]/tot.instr)
		renameAll += tot.rename[i] / float64(len(schemes))
	}
	r.set("pipeline.new_us", tot.newNs/float64(len(streams))/1e3)
	kc.all = kernelCost{
		emu: tot.emu / tot.instr, predict: tot.predict / tot.instr, warm: tot.warm / tot.instr,
		access: tot.access / tot.instr, touch: tot.touch / tot.instr, rename: renameAll / tot.instr,
	}
	r.kernels = &kc
	return nil
}

// kernel times one call of a replay loop as a span and returns its
// duration in ns. The replays build their state (predictor, hierarchy,
// engine) before returning the loop, so only the loop is timed.
func (r *run) kernel(name, profile string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.tr.add(name, 0, t0, t1, profile)
	return float64(t1.Sub(t0))
}

// streamMix counts the control instructions, cache accesses (an I-cache
// access per line transition plus one per load or store) and warming
// touches (per line transition and per load) of a stream.
func streamMix(s stream) (ctrl, accesses, touches float64) {
	shift := cache.NewHierarchy(config.GoldenCove()).L1I.LineShift()
	last := ^uint64(0)
	for _, rec := range s.recs {
		if line := (rec.PC * pipeline.InstBytes) >> shift; line != last {
			accesses++
			touches++
			last = line
		}
		switch {
		case rec.Op.IsControl():
			ctrl++
		case rec.Op == isa.OpLoad:
			accesses++
			touches++
		case rec.Op == isa.OpStore:
			accesses++
		}
	}
	return ctrl, accesses, touches
}

func replayEmu(s stream) func() {
	em := program.NewEmulator(s.prog)
	return func() {
		var rec program.Record
		for range s.recs {
			em.StepInto(&rec)
		}
	}
}

// replayPredict predicts and resolves every control instruction in
// program order, recovering on a mispredict as the frontend does.
func replayPredict(cfg config.Config, s stream) func() {
	p := bpred.New(cfg)
	return func() {
		var bp bpred.BranchPrediction
		for i := range s.recs {
			rec := &s.recs[i]
			if !rec.Op.IsControl() {
				continue
			}
			in := s.prog.At(rec.PC)
			p.PredictInto(in, rec.PC, &bp)
			if p.Resolve(in, rec.PC, &bp, rec.Taken, rec.NextPC) {
				p.Recover(in, rec.PC, &bp, rec.Taken)
			}
		}
	}
}

func replayWarm(cfg config.Config, s stream) func() {
	p := bpred.New(cfg)
	return func() {
		for i := range s.recs {
			rec := &s.recs[i]
			if rec.Op.IsControl() {
				p.Warm(s.prog.At(rec.PC), rec.PC, rec.Taken, rec.NextPC)
			}
		}
	}
}

// replayAccess drives the timed hierarchy with the stream's fetch lines
// and data addresses, one instruction per cycle.
func replayAccess(cfg config.Config, s stream) func() {
	h := cache.NewHierarchy(cfg)
	return func() {
		shift := h.L1I.LineShift()
		last := ^uint64(0)
		for i := range s.recs {
			rec := &s.recs[i]
			now := uint64(i)
			if line := (rec.PC * pipeline.InstBytes) >> shift; line != last {
				h.AccessInst(rec.PC*pipeline.InstBytes, now)
				last = line
			}
			if rec.Op.IsMem() {
				h.AccessData(rec.EA, rec.Op == isa.OpStore, now)
			}
		}
	}
}

// replayTouch is the functional-warming counterpart of replayAccess: the
// touches checkpoint's fast-forward makes (stores do not touch).
func replayTouch(cfg config.Config, s stream) func() {
	h := cache.NewHierarchy(cfg)
	return func() {
		shift := h.L1I.LineShift()
		last := ^uint64(0)
		for i := range s.recs {
			rec := &s.recs[i]
			if line := (rec.PC * pipeline.InstBytes) >> shift; line != last {
				h.TouchInst(rec.PC * pipeline.InstBytes)
				last = line
			}
			if rec.Op == isa.OpLoad {
				h.TouchData(rec.EA, false)
			}
		}
	}
}

// replayRename drives a release engine through the event protocol the
// pipeline uses for every committed instruction: rename, consumer issue,
// producer completion, then precommit and commit once the instruction
// leaves a renameWindow-deep in-flight window. The engine's invariants
// must hold at the end; a violation is stored in *err.
func replayRename(cfg config.Config, s stream, err *error) func() {
	e := core.NewEngine(cfg)
	return func() { *err = renameLoop(e, s) }
}

func renameLoop(e *core.Engine, s stream) error {
	var ring [renameWindow]core.RenameOut
	head, size := 0, 0
	var cycle uint64
	retire := func() {
		out := &ring[head]
		for k := range out.Dsts {
			d := out.Dsts[k]
			if !d.Reg.Valid() {
				continue
			}
			e.AllocPrecommitted(d)
			e.RedefinerPrecommitted(d, cycle)
			e.AllocCommitted(d)
			e.RedefinerCommitted(d, cycle)
		}
		head = (head + 1) % renameWindow
		size--
	}
	for i := range s.recs {
		cycle++
		e.Tick(cycle)
		for size == renameWindow || (size > 0 && !e.CanRename()) {
			retire()
		}
		if !e.CanRename() {
			return fmt.Errorf("free list exhausted with nothing in flight at instruction %d", i)
		}
		out := &ring[(head+size)%renameWindow]
		e.RenameInto(s.prog.At(s.recs[i].PC), cycle, out)
		size++
		for _, a := range out.Srcs {
			if a.Valid() {
				e.ConsumerIssued(a, cycle)
			}
		}
		for _, d := range out.Dsts {
			if d.Reg.Valid() && !d.Eliminated {
				e.ProducerCompleted(d.New, cycle)
			}
		}
	}
	for size > 0 {
		cycle++
		e.Tick(cycle)
		retire()
	}
	return e.CheckInvariants()
}

// attributeExact reports each kernel's replayed cost per committed
// instruction as a share of the pipeline's measured ns per instruction.
func (r *run) attributeExact(nsPerInstr float64) {
	k := r.kernels.all
	r.set("attr.emu_share", share(k.emu, nsPerInstr))
	r.set("attr.bpred_share", share(k.predict, nsPerInstr))
	r.set("attr.cache_share", share(k.access, nsPerInstr))
	r.set("attr.core_share", share(k.rename, nsPerInstr))
}

// attributeFastForward charges each sampled unit's fast-forwarded
// instructions at its profile's replayed emulator, warm and touch cost,
// reports each kernel's share of the units' host time, and returns the
// total fast-forward ns.
func (r *run) attributeFastForward(ests []namedEstimate, unitNs float64) float64 {
	var emu, warm, touch float64
	for _, e := range ests {
		k := r.kernels.perProfile[e.bench]
		ff := float64(e.est.FFInstr)
		emu += ff * k.emu
		warm += ff * k.warm
		touch += ff * k.touch
	}
	r.set("attr.emu_share", share(emu, unitNs))
	r.set("attr.bpred_share", share(warm, unitNs))
	r.set("attr.cache_share", share(touch, unitNs))
	return emu + warm + touch
}

// namedEstimate is one sampled unit's estimate with its profile.
type namedEstimate struct {
	bench string
	est   checkpoint.Estimate
}
