package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/pipeline"
)

// Options configures a sweep engine.
type Options struct {
	// Workers bounds concurrent runs; <= 0 selects GOMAXPROCS.
	Workers int

	// Retries is the number of re-executions granted to a failing run
	// beyond its first attempt; a run is recorded as failed only after
	// 1+Retries attempts.
	Retries int

	// Backoff is the sleep before the first retry, doubling per retry.
	// Zero retries immediately.
	Backoff time.Duration

	// Journal, when non-nil, receives the JSONL journal: a header line
	// binding the journal to the grid, then one line per completed run
	// (resumed runs are re-journaled up front, so a journal is always a
	// complete account of sweep state and can itself be resumed from).
	Journal io.Writer

	// Resume, when non-nil, supplies completed runs from a previous
	// journal; successful records whose keys appear in the grid are not
	// re-executed. Failed records are re-executed. The journal must have
	// been written for the same grid name and instruction budget.
	Resume *Journal

	// OnProgress, when non-nil, is called after every completed run with
	// cumulative counts. It is called from worker goroutines, serialized
	// by the engine.
	OnProgress func(obs.SweepProgress)

	// OnRun, when non-nil, is called after each executed (non-resumed)
	// unit finishes — successfully or after exhausting its retries — with
	// the pool worker that ran it and its wall-clock execution window. It
	// is a telemetry seam (span tracing, latency histograms): it observes
	// scheduling facts and can never influence the record or the manifest.
	// Called from worker goroutines, so it must be safe for concurrent use.
	OnRun func(u Unit, worker int, start time.Time, dur time.Duration, errMsg string)

	// InjectPanic, when positive, poisons the grid's k-th run (1-based,
	// grid order): every attempt of that run panics inside the worker.
	// The panic is recovered, retried, and recorded as a failed run — the
	// fault-injection hook proving one poisoned run cannot kill a sweep.
	// A poisoned unit never joins a lockstep group, so injection always
	// lands in the retrying per-unit path.
	InjectPanic int

	// JobID, when non-empty, names the server job this sweep executes on
	// behalf of. It is provenance only: it flows into SweepInfo, never the
	// deterministic manifest.
	JobID string
}

// Engine executes sweep grids. One engine may be reused; each Execute
// call's scheduling summary replaces Info.
type Engine struct {
	opts Options
	pool *Pool

	mu      sync.Mutex
	rec     []*Record
	detail  []*Detail // per-unit slots the engine's own run function fills
	shards  []obs.ShardStat
	info    obs.SweepInfo
	journal io.Writer
}

// New creates an engine.
func New(opts Options) *Engine {
	return &Engine{opts: opts, pool: NewPool(opts.Workers)}
}

// Info returns the scheduling summary of the most recent Execute call:
// outcome counts, journal flushes, wall clock, and per-shard throughput.
func (e *Engine) Info() obs.SweepInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info
}

// Execute runs every unit of g that the resume journal does not already
// cover, using fn, and returns the merged manifest with runs in grid order.
// A nil fn selects the engine's own run function (RunUnit over one shared
// program cache), which runs consecutive exact units of one profile as
// lockstep lanes and is the only one that fills a Detail grid's records; a
// caller's fn runs every unit solo and is refused for a Detail grid. The
// manifest is a pure function of (grid, injection settings): worker count,
// stealing schedule, lane grouping and resume splits cannot change a byte
// of it. On cancellation Execute returns the context error and no
// manifest; completed runs are already journaled, so a later Execute with
// Resume picks up where this one stopped.
func (e *Engine) Execute(ctx context.Context, g Grid, fn RunFunc) (*Manifest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g.Detail && fn != nil {
		return nil, fmt.Errorf("sweep: grid %q asks for Detail records, which only the engine's own run function fills (pass a nil RunFunc)", g.Name)
	}
	units := g.Units()
	if len(units) == 0 {
		return nil, fmt.Errorf("sweep: grid %q is empty", g.Name)
	}
	var progs *Programs // non-nil when the engine runs its own units and may group them
	var detail []*Detail
	lanes := 1
	if fn == nil {
		progs = new(Programs)
		detail = make([]*Detail, len(units))
		fn = func(_ context.Context, u Unit) (pipeline.Result, error) {
			res, d, err := RunUnit(u, progs.Get(u.Profile), g.Instr)
			detail[u.Seq] = d
			return res, err
		}
		if !g.Detail {
			lanes = laneWidth
		}
	}
	seen := make(map[string]int, len(units))
	for _, u := range units {
		if prev, dup := seen[u.Key]; dup {
			return nil, fmt.Errorf("sweep: grid %q runs %d and %d share key %s (duplicate unit)",
				g.Name, prev, u.Seq, u.Key)
		}
		seen[u.Key] = u.Seq
	}
	if r := e.opts.Resume; r != nil {
		if r.Grid != g.Name || r.Instr != g.Instr {
			return nil, fmt.Errorf("sweep: resume journal is for grid %q instr %d, want %q instr %d",
				r.Grid, r.Instr, g.Name, g.Instr)
		}
	}

	e.mu.Lock()
	e.rec = make([]*Record, len(units))
	e.detail = detail
	e.shards = make([]obs.ShardStat, e.pool.Workers())
	for i := range e.shards {
		e.shards[i].Worker = i
	}
	e.info = obs.SweepInfo{Workers: e.pool.Workers(), Total: len(units), Batch: lanes, Sample: SampleInfo(units)}
	e.journal = e.opts.Journal
	e.mu.Unlock()

	if err := e.writeJournal(journalHeader{
		Schema: JournalSchema, Version: JournalVersion,
		Grid: g.Name, Instr: g.Instr, Total: len(units),
	}); err != nil {
		return nil, err
	}

	// Satisfy runs from the resume journal; re-journal them so the new
	// journal is self-contained.
	var pending []int
	for i, u := range units {
		if e.opts.Resume != nil {
			if r, ok := e.opts.Resume.Records[u.Key]; ok && r.Err == "" {
				r.Seq, r.Bench, r.Scheme, r.PhysRegs = u.Seq, u.Profile.Name, u.Config.Scheme.String(), u.Config.PhysRegs
				r.Sample = u.Sample
				e.finishRun(u, r, -1, true)
				continue
			}
		}
		pending = append(pending, i)
	}

	host, _ := os.Hostname()
	start := time.Now()
	e.mu.Lock()
	e.info.Host = host
	e.info.JobID = e.opts.JobID
	e.info.StartedAt = start.UTC().Format(time.RFC3339Nano)
	e.mu.Unlock()

	// Sampled units can never join a lockstep group. The sample axis is
	// innermost in grid order, so left in place the sampled units would
	// shred every same-profile run of exact units into singleton groups;
	// a stable partition (exact first, sampled after) restores the
	// adjacency grouping needs without affecting the manifest, which is
	// merged in Seq order regardless of dispatch order.
	if lanes > 1 {
		exact := make([]int, 0, len(pending))
		var sampledUnits []int
		for _, i := range pending {
			if units[i].Sample == "" {
				exact = append(exact, i)
			} else {
				sampledUnits = append(sampledUnits, i)
			}
		}
		pending = append(exact, sampledUnits...)
	}

	// Group consecutive pending units sharing a profile into lockstep
	// lanes. Grouping is greedy over pending order, which is grid
	// order, so the profile-major grids — 2 register-file sizes × 4
	// schemes per profile — split into whole lane groups sharing one
	// program image. A poisoned unit is never grouped: injection must
	// land in the retrying per-unit path.
	var groups [][]int
	for start := 0; start < len(pending); {
		end := start + 1
		if lanes > 1 && e.opts.InjectPanic != units[pending[start]].Seq+1 &&
			units[pending[start]].Sample == "" {
			name := units[pending[start]].Profile.Name
			for end-start < lanes && end < len(pending) &&
				units[pending[end]].Profile.Name == name &&
				units[pending[end]].Sample == "" &&
				e.opts.InjectPanic != units[pending[end]].Seq+1 {
				end++
			}
		}
		groups = append(groups, pending[start:end])
		start = end
	}

	poolErr := e.pool.ForEach(ctx, len(groups), func(worker, gi int) {
		grp := groups[gi]
		if len(grp) == 1 {
			e.runSolo(ctx, units[grp[0]], fn, worker)
			return
		}
		us := make([]Unit, len(grp))
		for i, j := range grp {
			us[i] = units[j]
		}
		if !e.runGroup(us, progs, g.Instr, worker) {
			for _, u := range us {
				e.runSolo(ctx, u, fn, worker)
			}
		}
	})
	end := time.Now()
	wall := end.Sub(start).Seconds()

	e.mu.Lock()
	e.info.FinishedAt = end.UTC().Format(time.RFC3339Nano)
	e.info.WallSeconds = wall
	e.info.Shards = append([]obs.ShardStat(nil), e.shards...)
	var execCycles uint64
	for _, s := range e.shards {
		execCycles += s.Cycles
	}
	if wall > 0 {
		e.info.CyclesPerSec = float64(execCycles) / wall
	}
	recs := e.rec
	e.mu.Unlock()

	if poolErr != nil {
		return nil, poolErr
	}

	mergeStart := time.Now()
	runs := make([]Record, len(recs))
	for i, r := range recs {
		if r == nil {
			return nil, fmt.Errorf("sweep: run %d never executed (engine bug)", i)
		}
		runs[i] = *r
	}
	m, err := FinalizeManifest(g, runs)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.info.MergeSeconds = time.Since(mergeStart).Seconds()
	e.mu.Unlock()
	return m, nil
}

// FinalizeManifest assembles the deterministic merged manifest from one
// record per grid unit, already in grid (Seq) order. It is the single
// merge path: the engine and the job-service coordinator both call it, so
// the byte-parity argument (DESIGN 3.1c, 3.1i) rests on one piece of code
// regardless of whether records were produced by goroutines in one
// process or by worker daemons across a fleet.
func FinalizeManifest(g Grid, runs []Record) (*Manifest, error) {
	m := &Manifest{Schema: ManifestSchema, Version: ManifestVersion, Grid: g.info()}
	if len(runs) != m.Grid.Total {
		return nil, fmt.Errorf("sweep: merge has %d runs, grid %q declares %d", len(runs), g.Name, m.Grid.Total)
	}
	m.Runs = runs
	for i := range runs {
		if runs[i].Seq != i {
			return nil, fmt.Errorf("sweep: merge run %d has seq %d (not in grid order)", i, runs[i].Seq)
		}
		if runs[i].Err == "" {
			m.Totals.Done++
			m.Totals.Committed += runs[i].Result.Committed
			m.Totals.Cycles += runs[i].Result.Cycles
		} else {
			m.Totals.Failed++
		}
	}
	return m, nil
}

// runSolo executes one unit through the retrying per-unit path and
// accounts it to the worker's shard.
func (e *Engine) runSolo(ctx context.Context, u Unit, fn RunFunc, worker int) {
	t0 := time.Now()
	rec := e.runOne(ctx, u, fn)
	if rec.Err == "" && u.Detail {
		rec.Detail = e.detail[u.Seq]
	}
	busyDur := time.Since(t0)
	if cb := e.opts.OnRun; cb != nil {
		cb(u, worker, t0, busyDur, rec.Err)
	}
	e.accountShard(worker, busyDur.Seconds(), rec)
	e.finishRun(u, rec, worker, false)
}

// runGroup executes one profile-homogeneous group of exact units in
// lockstep lanes. It reports false — recording nothing — when a unit's
// config is invalid or the lanes panic; the caller then re-runs every unit
// through the per-unit path with its full retry budget, so grouping only
// ever adds a fast path and never changes failure semantics.
func (e *Engine) runGroup(us []Unit, progs *Programs, instr uint64, worker int) bool {
	t0 := time.Now()
	res, setup, exec, err := func() (res []pipeline.Result, setup, exec time.Duration, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		cfgs := make([]config.Config, len(us))
		for i, u := range us {
			if err := u.Config.Validate(); err != nil {
				return nil, 0, 0, err
			}
			cfgs[i] = u.Config
		}
		res, setup, exec = runLanes(progs.Get(us[0].Profile), cfgs, instr)
		return res, setup, exec, nil
	}()
	if err != nil {
		return false
	}
	busyDur := time.Since(t0)

	e.mu.Lock()
	e.info.Batches++
	e.info.BatchedRuns += len(us)
	e.info.SetupSeconds += setup.Seconds()
	e.info.ExecSeconds += exec.Seconds()
	e.mu.Unlock()

	share := busyDur / time.Duration(len(us))
	for i, u := range us {
		rec := Record{
			Key: u.Key, Seq: u.Seq, Bench: u.Profile.Name,
			Scheme: u.Config.Scheme.String(), PhysRegs: u.Config.PhysRegs,
			Sample: u.Sample, Attempts: 1, Result: res[i],
		}
		if cb := e.opts.OnRun; cb != nil {
			cb(u, worker, t0.Add(time.Duration(i)*share), share, "")
		}
		e.accountShard(worker, share.Seconds(), rec)
		e.finishRun(u, rec, worker, false)
	}
	return true
}

// accountShard adds one finished run to a worker's shard statistics.
func (e *Engine) accountShard(worker int, busy float64, rec Record) {
	e.mu.Lock()
	s := &e.shards[worker]
	s.Runs++
	s.BusySeconds += busy
	if rec.Err != "" {
		s.Failed++
	} else {
		s.Committed += rec.Result.Committed
		s.Cycles += rec.Result.Cycles
	}
	if s.BusySeconds > 0 {
		s.CyclesPerSec = float64(s.Cycles) / s.BusySeconds
	}
	e.mu.Unlock()
}

// runOne executes one unit with panic isolation and bounded
// retry-with-backoff, returning its deterministic record.
func (e *Engine) runOne(ctx context.Context, u Unit, fn RunFunc) Record {
	return ExecuteUnit(ctx, u, e.injected(fn), e.opts.Retries, e.opts.Backoff, func() {
		e.mu.Lock()
		e.info.Retried++
		e.mu.Unlock()
	})
}

// injected wraps fn with the engine's fault-injection hook: when the
// unit is the poisoned one, every attempt panics before fn runs.
func (e *Engine) injected(fn RunFunc) RunFunc {
	if e.opts.InjectPanic <= 0 {
		return fn
	}
	return InjectPanicRun(fn, e.opts.InjectPanic)
}

// InjectPanicRun wraps fn so that every attempt of the k-th grid run
// (1-based, grid order) panics before executing. It is the shared
// fault-injection hook: the engine and the job-service workers apply it
// identically, so a poisoned unit fails with the same recorded error no
// matter where it is scheduled.
func InjectPanicRun(fn RunFunc, k int) RunFunc {
	return func(ctx context.Context, u Unit) (pipeline.Result, error) {
		if k == u.Seq+1 {
			panic(fmt.Sprintf("injected fault (-inject-panic %d)", k))
		}
		return fn(ctx, u)
	}
}

// ExecuteUnit runs one grid unit with panic isolation and bounded
// retry-with-backoff (backoff doubles per retry), returning its
// deterministic record. It is the engine's per-unit execution path,
// exported so other executors — the job-service workers — share the
// exact retry, panic-recovery, and failure-recording semantics that the
// parity argument depends on. onRetry, when non-nil, is called before
// each retry sleep.
func ExecuteUnit(ctx context.Context, u Unit, fn RunFunc, retries int, backoff time.Duration, onRetry func()) Record {
	rec := Record{
		Key: u.Key, Seq: u.Seq, Bench: u.Profile.Name,
		Scheme: u.Config.Scheme.String(), PhysRegs: u.Config.PhysRegs,
		Sample: u.Sample,
	}
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		res, err := runAttempt(ctx, u, fn)
		if err == nil {
			rec.Result, rec.Err = res, ""
			return rec
		}
		rec.Err = err.Error()
		if attempt > retries || ctx.Err() != nil {
			return rec
		}
		if onRetry != nil {
			onRetry()
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return rec
			case <-t.C:
			}
			backoff *= 2
		}
	}
}

// runAttempt runs fn once, converting a panic into an error so a
// poisoned run degrades to a recorded failure instead of killing the
// sweep.
func runAttempt(ctx context.Context, u Unit, fn RunFunc) (res pipeline.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn(ctx, u)
}

// finishRun stores the record, journals it, updates counters, and emits a
// progress tick. worker is -1 for resumed runs.
func (e *Engine) finishRun(u Unit, rec Record, worker int, resumed bool) {
	e.mu.Lock()
	r := rec
	e.rec[u.Seq] = &r
	if resumed {
		e.info.Resumed++
	}
	if rec.Err == "" {
		e.info.Done++
	} else {
		e.info.Failed++
	}
	p := obs.SweepProgress{
		Done: e.info.Done, Failed: e.info.Failed, Retried: e.info.Retried,
		Resumed: e.info.Resumed, Total: e.info.Total,
		Bench: rec.Bench, Scheme: rec.Scheme, Worker: worker, Err: rec.Err,
	}
	cb := e.opts.OnProgress
	e.mu.Unlock()

	// Journal failures too: a resumed sweep re-executes them (LoadJournal
	// keeps them, Execute only skips Err=="" records).
	if err := e.writeJournal(journalEntry{Record: rec, Worker: worker}); err != nil && cb != nil {
		p.Err = "journal: " + err.Error()
	}
	if cb != nil {
		cb(p)
	}
}

// writeJournal appends one JSONL line. Each line is one Write call, so an
// os.File journal is line-atomic in practice and a kill can corrupt at
// most the final line — which LoadJournal tolerates.
func (e *Engine) writeJournal(v any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.journal == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: journal encode: %w", err)
	}
	if _, err := e.journal.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: journal write: %w", err)
	}
	e.info.JournalFlushes++
	return nil
}

// SampleInfo summarizes the sampled-execution axis of units for a perf
// manifest: the distinct sample modes in first-appearance order and the
// sampled/exact split. It is nil when every unit runs exact.
func SampleInfo(units []Unit) *obs.SampleSweepInfo {
	info := &obs.SampleSweepInfo{}
	seen := make(map[string]bool)
	for _, u := range units {
		if u.Sample == "" {
			info.ExactRuns++
			continue
		}
		info.SampledRuns++
		if !seen[u.Sample] {
			seen[u.Sample] = true
			info.Modes = append(info.Modes, u.Sample)
		}
	}
	if info.SampledRuns == 0 {
		return nil
	}
	return info
}
