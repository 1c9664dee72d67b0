package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/sweep"
	"atr/internal/workload"
)

const (
	fig10Instr   = 40_000     // the budget EXPERIMENTS.md uses for Fig 10
	sampledInstr = 10_000_000 // BENCH_8's battery horizon
	sampledPlan  = "systematic:100000/2000/500"
	sweepWorkers = 2  // pool width: one per core of the reference machine
	setupProbes  = 15 // cold set-ups per run; setup_s is their median
)

// permutedProfiles returns the 23 benchmark profiles in a seed-dependent
// order. stream separates independent permutations under one seed. The
// set of profiles, and so the set of run keys, never depends on the seed.
func permutedProfiles(seed, stream uint64) []workload.Profile {
	ps := workload.Profiles()
	rng := rand.New(rand.NewPCG(seed, stream))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// fig10Grid is sweep.Fig10Grid(40000) over the given profile order (nil:
// the preset's order).
func fig10Grid(ps []workload.Profile) sweep.Grid {
	g := sweep.Fig10Grid(fig10Instr)
	if ps != nil {
		g.Profiles = ps
	}
	return g
}

// sampledGrid is BENCH_8's battery configuration as a sample-axis grid.
func sampledGrid(ps []workload.Profile) sweep.Grid {
	if ps == nil {
		ps = workload.Profiles()
	}
	return sweep.Grid{
		Name:        "sampled-long",
		Instr:       sampledInstr,
		Base:        config.GoldenCove(),
		Profiles:    ps,
		PhysRegs:    []int{64},
		Schemes:     []config.ReleaseScheme{config.SchemeCombined},
		SampleModes: []string{sampledPlan},
	}
}

func offlineGrid(name string, seed uint64) (sweep.Grid, bool) {
	switch name {
	case "fig10-exact":
		return fig10Grid(permutedProfiles(seed, 0)), true
	case "sampled-long":
		return sampledGrid(permutedProfiles(seed, 0)), true
	}
	return sweep.Grid{}, false
}

// probeSetup is the child side of offline set-up timing: process start
// plus grid construction, which every atrsweep run pays.
func probeSetup(name string, seed uint64) int {
	g, ok := offlineGrid(name, seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no offline workload %q\n", name)
		return 2
	}
	fmt.Printf("ready %d\n", len(g.Units()))
	return 0
}

// offlineSetup times setupProbes cold starts of this binary building the
// workload's grid, and returns their median in seconds.
func (r *run) offlineSetup() (float64, error) {
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		cmd := exec.Command(r.self, "-probe-setup", r.workload, "-seed", fmt.Sprint(r.seed))
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || len(line) < 6 || line[:6] != "ready " {
			return 0, fmt.Errorf("set-up probe printed %q", line)
		}
		r.tr.add("setup.probe", 0, t0, t0.Add(d), "")
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// unitRun is one unit's execution window as the engine reported it.
type unitRun struct {
	bench  string
	worker int
	start  time.Time
	dur    time.Duration
}

// sweepPhase is the account of back-to-back sweeps of one grid.
type sweepPhase struct {
	durs      []float64 // per sweep: Execute + manifest encode + output check, ms
	total     time.Duration
	committed uint64 // instructions simulated (sampled: covered)
	cycles    uint64
	stalls    uint64
	infos     []obs.SweepInfo
	encodeMs  []float64
	manifest  []byte          // last sweep's encoded manifest
	runs      []sweep.Record  // last sweep's records
	units     []unitRun       // traced only
	estimates []namedEstimate // traced sampled units only
	mallocs   uint64          // traced only
}

// tracedOrder splits a traced run's window into quarters, untraced,
// traced, traced, untraced, so that a drift over the run (machine speed,
// state the program accumulates) does not pass for tracing overhead.
var tracedOrder = []bool{false, true, true, false}

// runOffline drives an offline workload: set-up, then sweeps back to back
// until the window is spent. A traced run measures the untraced reference
// and the traced phase in tracedOrder.
func (r *run) runOffline(t *goldenTable) error {
	g, _ := offlineGrid(r.workload, r.seed)
	setup, err := r.offlineSetup()
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	if !r.traced {
		ph := &sweepPhase{}
		if err := r.sweeps(ph, g, t, r.seconds, false); err != nil {
			return err
		}
		secs := ph.total.Seconds()
		r.set("sim_instr_per_s", float64(ph.committed)/secs)
		r.set("job_ms_p50", median(ph.durs))
		r.set("job_ms_p90", percentile(ph.durs, 0.9))
		r.set("jobs_per_s", float64(len(ph.durs))/secs)
		r.set("rss_mb", selfRSSMB())
		return nil
	}

	if err := r.replayKernels(g); err != nil {
		return err
	}
	ref, ph := &sweepPhase{}, &sweepPhase{}
	for _, traced := range tracedOrder {
		p := ref
		if traced {
			p = ph
		}
		if err := r.sweeps(p, g, t, r.seconds/time.Duration(len(tracedOrder)), traced); err != nil {
			return err
		}
	}
	rate := func(p *sweepPhase) float64 { return float64(p.committed) / p.total.Seconds() }
	r.set("trace.overhead_pct", (rate(ref)/rate(ph)-1)*100)
	r.offlineLayers(ph)
	return nil
}

// sweeps executes g repeatedly on a fresh engine per sweep, the way
// atrsweep -grid fig10 does: Execute(ctx, g, nil) with 2 pool workers, so
// the engine picks its own run functions and batches lockstep groups. It
// starts another sweep only while the previous one would still fit in the
// window, always runs at least one, and adds its account to ph.
func (r *run) sweeps(ph *sweepPhase, g sweep.Grid, t *goldenTable, window time.Duration, traced bool) error {
	var elapsed time.Duration
	var tr *tracer // the untraced reference phase of a traced run records nothing
	if traced {
		tr = r.tr
	}
	var mu sync.Mutex
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	for {
		opts := sweep.Options{Workers: sweepWorkers}
		var fn sweep.RunFunc
		if traced {
			opts.OnRun = func(u sweep.Unit, worker int, start time.Time, dur time.Duration, _ string) {
				mu.Lock()
				ph.units = append(ph.units, unitRun{bench: u.Profile.Name, worker: worker, start: start, dur: dur})
				mu.Unlock()
			}
			if len(g.SampleModes) > 0 {
				// Sampled units never batch, so a run function of our own
				// executes exactly what the engine's would, and exposes
				// each unit's sampling account.
				fn = estimateRun(g.Instr, func(bench string, e checkpoint.Estimate) {
					mu.Lock()
					ph.estimates = append(ph.estimates, namedEstimate{bench, e})
					mu.Unlock()
				})
			}
		}
		sweepID := tr.reserve("sweep", 0)
		execID := tr.reserve("sweep.execute", sweepID)
		t0 := time.Now()
		eng := sweep.New(opts)
		m, err := eng.Execute(context.Background(), g, fn)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", g.Name, err)
		}
		tExec := time.Now()
		if len(g.SampleModes) == 0 && eng.Info().BatchedRuns == 0 {
			r.fail("%s: batch.batched_share is 0; the default engine path did not batch", g.Name)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return err
		}
		tEnc := time.Now()
		r.attempted += m.Grid.Total
		bad, errs := t.checkManifest(m)
		r.failed += bad
		for _, err := range errs {
			r.fail("%v", err)
		}
		d := time.Since(t0)
		tr.finish(execID, t0, tExec)
		tr.add("obs.encode", sweepID, tExec, tEnc, "")
		tr.add("check", sweepID, tEnc, t0.Add(d), "")
		tr.finish(sweepID, t0, t0.Add(d))
		if traced {
			unitSpans(tr, execID, ph.units[len(ph.units)-len(m.Runs):])
		}

		ph.durs = append(ph.durs, ms(d))
		ph.total += d
		elapsed += d
		ph.infos = append(ph.infos, eng.Info())
		ph.encodeMs = append(ph.encodeMs, ms(tEnc.Sub(tExec)))
		ph.manifest, ph.runs = buf.Bytes(), m.Runs
		for _, rec := range m.Runs {
			ph.committed += rec.Result.Committed
			ph.cycles += rec.Result.Cycles
			ph.stalls += rec.Result.RenameStalls
		}
		if elapsed+d > window {
			break
		}
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ph.mallocs += after.Mallocs - before.Mallocs
	}
	return nil
}

// unitSpans turns one sweep's unit windows into spans. Lockstep-batched
// units arrive as equal shares of their group's time, so contiguous units
// of one worker and profile with equal shares form one group span; time
// is attributed per group.
func unitSpans(tr *tracer, parent int, units []unitRun) {
	us := append([]unitRun(nil), units...)
	sort.Slice(us, func(i, j int) bool {
		if us[i].worker != us[j].worker {
			return us[i].worker < us[j].worker
		}
		return us[i].start.Before(us[j].start)
	})
	for i := 0; i < len(us); {
		j := i + 1
		for j < len(us) && us[j].worker == us[i].worker && us[j].bench == us[i].bench &&
			us[j].dur == us[i].dur && us[j].start.Equal(us[j-1].start.Add(us[j-1].dur)) {
			j++
		}
		last := us[j-1]
		gid := tr.add("group", parent, us[i].start, last.start.Add(last.dur), fmt.Sprintf("%s x%d w%d", us[i].bench, j-i, us[i].worker))
		for _, u := range us[i:j] {
			tr.add("unit", gid, u.start, u.start.Add(u.dur), u.bench)
		}
		i = j
	}
}

// estimateRun is the engine's sampled run function (generate each program
// once per sweep, checkpoint.Run on the default scheduler) with a hook
// that receives each unit's full estimate.
func estimateRun(instr uint64, observe func(string, checkpoint.Estimate)) sweep.RunFunc {
	var mu sync.Mutex
	progs := make(map[string]*program.Program)
	return func(ctx context.Context, u sweep.Unit) (pipeline.Result, error) {
		if err := u.Config.Validate(); err != nil {
			return pipeline.Result{}, err
		}
		plan, err := checkpoint.ParseMode(u.Sample)
		if err != nil {
			return pipeline.Result{}, err
		}
		mu.Lock()
		prog, ok := progs[u.Profile.Name]
		if !ok {
			prog = u.Profile.Generate()
			progs[u.Profile.Name] = prog
		}
		mu.Unlock()
		est := checkpoint.Run(u.Config, prog, pipeline.SchedulerEvent, instr, plan)
		observe(u.Profile.Name, est)
		return est.Result, nil
	}
}

// offlineLayers derives the per-layer metrics of an offline traced phase.
func (r *run) offlineLayers(ph *sweepPhase) {
	var busy, wall, batched, total, merge float64
	for _, in := range ph.infos {
		for _, s := range in.Shards {
			busy += s.BusySeconds
		}
		wall += float64(in.Workers) * in.WallSeconds
		batched += float64(in.BatchedRuns)
		total += float64(in.Total)
		merge += in.MergeSeconds * 1000
	}
	committed := float64(ph.committed)
	nsPerInstr := share(busy*1e9, committed)
	r.set("pipeline.ns_per_instr", nsPerInstr)
	r.set("pipeline.allocs_per_kinstr", share(float64(ph.mallocs)*1000, committed))
	r.set("pipeline.ipc", share(committed, float64(ph.cycles)))
	r.set("pipeline.rename_stalls_per_kinstr", share(float64(ph.stalls)*1000, committed))
	r.set("sweep.busy_share", share(busy, wall))
	r.set("batch.batched_share", share(batched, total))
	r.set("sweep.merge_ms", share(merge, float64(len(ph.infos))))
	r.set("obs.manifest_encode_ms", median(ph.encodeMs))
	r.set("obs.manifest_kb", float64(len(ph.manifest))/1024)
	r.set("sweep.journal_append_us", r.journalAppendUs(ph.runs))
	if len(ph.estimates) == 0 {
		r.attributeExact(nsPerInstr)
		return
	}

	var ff, covered, windows, unitNs, ffNs float64
	for _, e := range ph.estimates {
		ff += float64(e.est.FFInstr)
		covered += float64(e.est.TotalInstr)
		windows += float64(e.est.Windows)
	}
	for _, u := range ph.units {
		unitNs += float64(u.dur)
	}
	n := float64(len(ph.estimates))
	r.set("checkpoint.ff_share", share(ff, covered))
	r.set("checkpoint.windows_per_unit", windows/n)
	r.set("checkpoint.unit_ms", unitNs/n/1e6)
	ffNs = r.attributeFastForward(ph.estimates, unitNs)
	r.set("checkpoint.ff_time_share", share(ffNs, unitNs))
	r.set("checkpoint.ipc_err_pct", ipcErrPct(ph.runs, r.golden.sampled.ExactIPC))
}

// ipcErrPct is the median over profiles of |sampled IPC − exact IPC| ÷
// exact IPC, in percent, against BENCH_8's 10M-instruction exact IPCs.
func ipcErrPct(runs []sweep.Record, exact map[string]float64) float64 {
	var errs []float64
	for _, rec := range runs {
		if e, ok := exact[rec.Bench]; ok && e > 0 {
			errs = append(errs, math.Abs(rec.Result.IPC-e)/e*100)
		}
	}
	return median(errs)
}

// journalAppendUs replays the records through the journal writer the
// daemons use, into a file, and returns the mean microseconds per append.
func (r *run) journalAppendUs(runs []sweep.Record) float64 {
	f, err := os.CreateTemp(r.workDir, "journal-*.jsonl")
	if err != nil {
		r.fail("journal replay: %v", err)
		return 0
	}
	defer f.Close()
	t0 := time.Now()
	for _, rec := range runs {
		if err := sweep.AppendJournalRecord(f, rec, 0, ""); err != nil {
			r.fail("journal replay: %v", err)
			return 0
		}
	}
	d := time.Since(t0)
	r.tr.add("sweep.journal_replay", 0, t0, t0.Add(d), fmt.Sprintf("%d records", len(runs)))
	return share(float64(d)/1e3, float64(len(runs)))
}

// selfRSSMB is this process's peak resident set (VmHWM) in MB.
func selfRSSMB() float64 {
	v, _ := vmHWM(os.Getpid())
	return v
}
