// Package server is atrd's job service: a coordinator that accepts
// simulation and sweep jobs over HTTP, leases their units to workers, and
// merges the records into manifests byte-identical to offline atrsweep.
//
// Plain atrd is the coordinator plus one in-process worker whose slots
// lease units and hand records back by direct call; atrd -coordinator
// starts no in-process worker, and atrd -join runs a Worker that leases
// over the /cluster/v1 API. A single node is thus a cluster whose only
// worker shares the process.
//
// The parity argument (DESIGN 3.1i) is by construction: run identity is
// the sweep engine's SHA-256 run key, every worker executes units through
// sweep.ExecuteUnit over sweep.RunUnit, records are deterministic in
// (profile, config, instr), and the merge is sweep.FinalizeManifest — so
// which worker ran a unit, how leases moved, and how many times a record
// arrived can never change a byte of the result.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"atr/internal/experiments"
	"atr/internal/obs"
	"atr/internal/sweep"
	"atr/internal/telemetry"
)

// Options configures a coordinator.
type Options struct {
	// StateDir is the persistent job store: one directory per job under
	// jobs/ holding spec, journal, manifest, perf summary and span log,
	// plus the tenant quota table. Required.
	StateDir string

	// DefaultInstr fills in a zero per-run instruction budget (0 selects
	// 40000).
	DefaultInstr uint64

	// SimWorkers is the number of in-process worker slots, each executing
	// one unit at a time (0 selects GOMAXPROCS; negative starts no
	// in-process worker, leaving execution to joined workers).
	SimWorkers int

	// Retries and Backoff are the in-process worker's per-unit retry
	// budget, with the sweep engine's semantics.
	Retries int
	Backoff time.Duration

	// QueueDepth bounds the jobs none of whose units is leased yet;
	// submissions beyond it are refused with 429 + Retry-After (<= 0
	// selects 64).
	QueueDepth int

	// Rate and Burst shape the per-client submission token bucket (Rate 0
	// selects 5/sec; negative disables limiting; Burst <= 0 selects 10).
	Rate  float64
	Burst int

	// MaxActive is the default per-tenant active-job quota; 0 is
	// unlimited. Overrides set via PUT /cluster/v1/quotas persist in the
	// state dir.
	MaxActive int

	// CacheCap bounds the content-addressed result cache (<= 0 selects
	// 65536 records).
	CacheCap int

	// HeartbeatTimeout evicts a joined worker silent this long, and
	// LeaseTimeout reclaims a joined worker's unit lease unsatisfied this
	// long; reclaimed units return to pending (<= 0 select 10s and 60s).
	// In-process slots neither heartbeat nor lose their leases.
	HeartbeatTimeout time.Duration
	LeaseTimeout     time.Duration

	// Logger receives structured request and job-lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
}

// localWorker is the fleet name of the in-process worker.
const localWorker = "local"

// pollMax bounds the units granted per worker poll.
const pollMax = 64

// pollPark bounds how long a poll with nothing to lease waits for a unit.
// It sits well under a joined worker's 30 s client timeout, so an idle
// worker's poll answers empty rather than failing.
const pollPark = 10 * time.Second

// Coordinator is the job service. It implements http.Handler.
type Coordinator struct {
	opts      Options
	fs        storeFS
	mux       *http.ServeMux
	cache     *RunCache
	limiter   *Limiter
	runner    *experiments.Runner // the in-process worker's program cache
	tm        *metrics
	logger    *slog.Logger
	startedAt time.Time

	ctx  context.Context // cancelled by Shutdown: stops the reaper and local slots
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*job
	order   []string       // every job ID, in submission order
	live    []*job         // queued and running jobs, in submission order
	active  map[string]int // tenant -> live job count
	quotas  map[string]int // tenant -> max-active override
	nextID  int
	closed  bool
	idle    chan struct{} // closed and replaced to wake idle slots and parked polls

	// beforeRun, when non-nil, is called by a local slot after it leases
	// a unit and before executing it. Tests use it to hold units in
	// flight; it is read under mu.
	beforeRun func(jobID string)
}

type workerState struct {
	id           string
	addr         string
	local        bool
	simWorkers   int
	registeredAt time.Time
	lastBeat     time.Time
	leased       int
	done         uint64
	failed       uint64
}

// job is one submitted grid. While live it holds per-unit lease state and
// accepted records; at its terminal transition those are released and
// only what Status and /perf report remains.
type job struct {
	id          string
	tenant      string
	spec        JobSpec
	submittedAt string
	admitted    time.Time // admission, or recovery, in this process
	started     time.Time // first lease; zero while queued

	state    string
	err      string
	progress obs.SweepProgress
	cycles   uint64 // simulated by executed (not resumed) units
	flushes  int    // journal lines written

	grid    sweep.Grid // only Name and Instr survive release
	units   []sweep.Unit
	byKey   map[string]int // run key -> seq
	leases  []lease        // by seq
	recs    []*sweep.Record
	journal io.WriteCloser

	changed chan struct{} // closed and replaced on every update
}

type lease struct {
	worker string
	exp    time.Time
}

func (j *job) live() bool { return j.state == StateQueued || j.state == StateRunning }

// NewCoordinator creates the job service over a state directory, recovers
// every unfinished job found there, and starts the in-process worker.
func NewCoordinator(opts Options) (*Coordinator, error) {
	return newCoordinator(opts, osFS{})
}

func newCoordinator(opts Options, fs storeFS) (*Coordinator, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("server: StateDir is required")
	}
	if opts.DefaultInstr == 0 {
		opts.DefaultInstr = 40_000
	}
	if opts.SimWorkers == 0 {
		opts.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Rate == 0 {
		opts.Rate = 5
	}
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 10 * time.Second
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 60 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	tm := newMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:      opts,
		fs:        fs,
		cache:     NewRunCache(opts.CacheCap, tm.cacheHits, tm.cacheMisses),
		limiter:   NewLimiter(opts.Rate, opts.Burst),
		runner:    experiments.NewRunner(opts.DefaultInstr),
		tm:        tm,
		logger:    opts.Logger,
		startedAt: time.Now(),
		ctx:       ctx,
		stop:      cancel,
		workers:   make(map[string]*workerState),
		jobs:      make(map[string]*job),
		active:    make(map[string]int),
		quotas:    make(map[string]int),
		nextID:    1,
		idle:      make(chan struct{}),
	}
	if opts.SimWorkers > 0 {
		c.workers[localWorker] = &workerState{id: localWorker, local: true,
			simWorkers: opts.SimWorkers, registeredAt: c.startedAt, lastBeat: c.startedAt}
	}
	if err := c.loadQuotas(); err != nil {
		cancel()
		return nil, err
	}
	if err := c.recover(); err != nil {
		cancel()
		return nil, err
	}
	tm.registerCollectors(c)
	c.routes()
	c.wg.Add(1)
	go c.reaper()
	for slot := 0; slot < opts.SimWorkers; slot++ {
		c.wg.Add(1)
		go c.localSlot(slot)
	}
	return c, nil
}

// Shutdown drains the service: submissions are refused, the in-process
// worker stops once its in-flight units are accepted and journaled, and
// every unfinished job parks as interrupted with no terminal marker — a
// later coordinator over the same state dir resumes it from its journal.
// It returns ctx.Err() if the drain outlives ctx.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stop()

	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	c.mu.Lock()
	for len(c.live) > 0 {
		c.finishLocked(c.live[0], StateInterrupted, "daemon shutdown; journaled runs will resume")
	}
	c.mu.Unlock()
	return nil
}

// reaper periodically expires leases and evicts silent workers, so
// steal-back happens even while no worker is polling.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	period := min(c.opts.HeartbeatTimeout, c.opts.LeaseTimeout) / 4
	period = max(10*time.Millisecond, min(period, time.Second))
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// recover scans the job store. Jobs with a manifest are done; a terminal
// status.json keeps its state; anything else re-resolves its grid,
// re-adopts the journal's successful records (failures re-execute, exactly
// like an engine resume), rewrites a self-contained journal, and waits for
// workers again.
func (c *Coordinator) recover() error {
	entries, err := os.ReadDir(filepath.Join(c.opts.StateDir, "jobs"))
	if err != nil {
		return fmt.Errorf("server: scan state: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= c.nextID {
			c.nextID = n + 1
		}
		var pj persistedJob
		b, err := os.ReadFile(c.jobFile(id, "spec.json"))
		if err == nil {
			err = json.Unmarshal(b, &pj)
		}
		var j *job
		if err == nil {
			var g sweep.Grid
			if g, err = pj.Spec.ResolveGrid(c.opts.DefaultInstr); err == nil {
				j, err = newJob(id, pj.Tenant, pj.Spec, g)
			}
		}
		if err != nil || pj.ID != id {
			c.logger.Warn("recover: skipping job without a usable spec", "job", id, "err", err)
			continue
		}
		j.submittedAt = pj.SubmittedAt

		st, hasStatus := readStatus(c.jobFile(id, "status.json"))
		switch {
		case fileExists(c.jobFile(id, "manifest.json")):
			j.state, j.progress.Done = StateDone, j.progress.Total
		case hasStatus:
			j.state, j.err = st.State, st.Error
		case pj.Spec.Ephemeral:
			// The watcher that owned this job left with the old daemon.
			j.state, j.err = StateCancelled, "daemon restarted; ephemeral owner gone"
			if err := writeJSONAtomic(c.fs, c.jobFile(id, "status.json"), persistedStatus{j.state, j.err}); err != nil {
				c.logger.Error("status write failed", "job", id, "err", err)
			}
		}
		if !j.live() {
			j.release()
			c.jobs[id] = j
			c.order = append(c.order, id)
			continue
		}

		var adopted []sweep.Record
		if f, err := os.Open(c.jobFile(id, "journal.jsonl")); err == nil {
			if jr, err := sweep.LoadJournal(f); err == nil && jr.Grid == j.grid.Name && jr.Instr == j.grid.Instr {
				for _, rec := range jr.Records {
					if rec.Err == "" {
						adopted = append(adopted, rec)
					}
				}
			}
			f.Close()
		}
		if err := c.openJournal(j); err != nil {
			return err
		}
		sort.Slice(adopted, func(a, b int) bool { return adopted[a].Seq < adopted[b].Seq })
		c.admitLocked(j)
		for _, rec := range adopted {
			c.acceptLocked(j, rec, "", true)
		}
		c.tm.jobsRecovered.Inc()
		c.satisfyFromCacheLocked(j)
		c.maybeFinishLocked(j)
		c.logger.Info("job recovered", "job", id, "state", j.state,
			"resumed", j.progress.Resumed, "total", j.progress.Total)
	}
	return nil
}

func newJob(id, tenant string, spec JobSpec, g sweep.Grid) (*job, error) {
	units := g.Units()
	if len(units) == 0 {
		return nil, fmt.Errorf("grid %q is empty", g.Name)
	}
	byKey := make(map[string]int, len(units))
	for _, u := range units {
		if prev, dup := byKey[u.Key]; dup {
			return nil, fmt.Errorf("grid %q runs %d and %d share key %s (duplicate unit)", g.Name, prev, u.Seq, u.Key)
		}
		// A unit whose config cannot run would fail every attempt on a
		// worker; refuse the job at admission instead.
		if err := u.Config.Validate(); err != nil {
			return nil, fmt.Errorf("grid %q run %d: %w", g.Name, u.Seq, err)
		}
		byKey[u.Key] = u.Seq
	}
	return &job{
		id: id, tenant: tenant, spec: spec, admitted: time.Now(),
		state:    StateQueued,
		progress: obs.SweepProgress{Total: len(units)},
		grid:     g, units: units, byKey: byKey,
		leases:  make([]lease, len(units)),
		recs:    make([]*sweep.Record, len(units)),
		changed: make(chan struct{}),
	}, nil
}

// release drops a terminal job's per-unit state.
func (j *job) release() {
	j.grid = sweep.Grid{Name: j.grid.Name, Instr: j.grid.Instr}
	j.units, j.byKey, j.leases, j.recs = nil, nil, nil, nil
}

// bumpLocked wakes event-stream watchers.
func (j *job) bumpLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// admitLocked registers a new or recovered job as queued and wakes idle
// workers.
func (c *Coordinator) admitLocked(j *job) {
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.live = append(c.live, j)
	c.active[j.tenant]++
	c.tm.jobsQueued.Inc()
	c.wakeIdle()
}

// wakeIdle wakes idle in-process slots and parked polls: units may have
// become leasable.
func (c *Coordinator) wakeIdle() {
	close(c.idle)
	c.idle = make(chan struct{})
}

// --- membership, leases, records ---

// expireLocked advances cluster time: joined workers silent past the
// heartbeat timeout are evicted (membership is liveness-driven) and their
// leases, like leases past the lease timeout, are reclaimed. The
// in-process worker is never evicted and its leases never expire.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if !w.local && now.Sub(w.lastBeat) > c.opts.HeartbeatTimeout {
			delete(c.workers, id)
			c.tm.workersEvicted.Inc()
			c.logger.Warn("worker evicted", "worker", id,
				"silent", now.Sub(w.lastBeat).Round(time.Millisecond).String())
		}
	}
	for _, j := range c.live {
		for seq, l := range j.leases {
			if l.worker == "" || l.worker == localWorker {
				continue
			}
			if _, alive := c.workers[l.worker]; alive && now.Before(l.exp) {
				continue
			}
			c.reclaimLocked(j, seq)
		}
	}
}

// reclaimLocked returns one leased unit to pending, where the next worker
// to lease takes it back.
func (c *Coordinator) reclaimLocked(j *job, seq int) {
	if w, ok := c.workers[j.leases[seq].worker]; ok {
		w.leased--
	}
	j.leases[seq] = lease{}
	c.tm.unitsStolen.Inc()
	c.wakeIdle()
}

func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// leaseLocked grants worker w up to max leases on the oldest pending
// units: live jobs in submission order, units in grid order, whichever
// worker asks. A job starts running at its first lease.
func (c *Coordinator) leaseLocked(w *workerState, max int, now time.Time) []Assignment {
	var out []Assignment
	for _, j := range c.live {
		var seqs []int
		for seq := range j.units {
			if max == 0 {
				break
			}
			l := &j.leases[seq]
			if j.recs[seq] != nil || l.worker != "" {
				continue
			}
			*l = lease{worker: w.id, exp: now.Add(c.opts.LeaseTimeout)}
			w.leased++
			seqs = append(seqs, seq)
			max--
		}
		if len(seqs) == 0 {
			continue
		}
		if j.state == StateQueued {
			j.state, j.started = StateRunning, now
			wait := now.Sub(j.admitted)
			c.tm.jobsQueued.Dec()
			c.tm.jobsRunning.Inc()
			c.tm.queueWait.Observe(wait)
			c.emitSpan(j.id, telemetry.Span{Name: "queue-wait"}, j.admitted, wait)
			c.logger.Info("job started", "job", j.id, "grid", j.grid.Name, "units", j.progress.Total,
				"queue_wait_ms", float64(wait.Microseconds())/1000)
			j.bumpLocked()
		}
		out = append(out, Assignment{Job: j.id, Spec: j.spec, Instr: j.grid.Instr, Seqs: seqs})
		c.tm.unitsDispatched.Add(uint64(len(seqs)))
	}
	return out
}

// satisfyFromCacheLocked finishes every unit of j the content-addressed
// cache already holds — dedup across tenants and jobs before any dispatch.
// It is the one cache lookup a unit ever gets.
func (c *Coordinator) satisfyFromCacheLocked(j *job) {
	for _, u := range j.units {
		if j.recs[u.Seq] != nil {
			continue
		}
		if rec, ok := c.cache.Get(u.Key, j.grid.Instr); ok {
			c.acceptLocked(j, rec, "", true)
		}
	}
}

// acceptLocked installs one record for j, normalizing identity fields from
// the unit exactly as an engine resume does, journaling it, and feeding
// the cache. Duplicate records — a steal-back losing the race with the
// original owner's late upload, or a retried upload — are discarded
// idempotently: records are deterministic, so the copies are
// interchangeable and first-write-wins cannot change bytes. Returns false
// for a duplicate or a record matching no unit.
func (c *Coordinator) acceptLocked(j *job, rec sweep.Record, node string, resumed bool) bool {
	seq, ok := j.byKey[rec.Key]
	if !ok {
		c.tm.badUploads.Inc()
		return false
	}
	if j.recs[seq] != nil {
		c.tm.dupUploads.Inc()
		return false
	}
	u := j.units[seq]
	rec.Seq, rec.Bench, rec.Scheme, rec.PhysRegs = u.Seq, u.Profile.Name, u.Config.Scheme.String(), u.Config.PhysRegs
	rec.Sample = u.Sample
	j.recs[seq] = &rec
	if w, ok := c.workers[j.leases[seq].worker]; ok {
		w.leased--
	}
	j.leases[seq] = lease{}
	if rec.Err == "" {
		j.progress.Done++
	} else {
		j.progress.Failed++
	}
	j.progress.Bench, j.progress.Scheme, j.progress.Err = rec.Bench, rec.Scheme, rec.Err
	if resumed {
		j.progress.Resumed++
		c.tm.unitsFromCache.Inc()
	} else {
		j.progress.Retried += rec.Attempts - 1
		j.cycles += rec.Result.Cycles
	}
	if j.journal != nil {
		if err := sweep.AppendJournalRecord(j.journal, rec, -1, node); err != nil {
			c.logger.Error("journal write failed", "job", j.id, "err", err)
		} else {
			j.flushes++
		}
	}
	c.cache.Put(rec.Key, j.grid.Instr, rec)
	j.bumpLocked()
	return true
}

// deliverLocked takes one executed record from the named worker: accepted
// into a live job, finishing it if that was the last unit, or — for a job
// that already ended — kept only for its cache value.
func (c *Coordinator) deliverLocked(j *job, worker string, rec sweep.Record) bool {
	if !j.live() {
		c.cache.Put(rec.Key, j.grid.Instr, rec)
		c.tm.dupUploads.Inc()
		return false
	}
	if !c.acceptLocked(j, rec, worker, false) {
		return false
	}
	c.tm.runsExecuted.Inc()
	if w, ok := c.workers[worker]; ok && rec.Err == "" {
		w.done++
	} else if ok {
		w.failed++
	}
	c.maybeFinishLocked(j)
	return true
}

// maybeFinishLocked merges and persists the manifest once every unit has a
// record. The merge is sweep.FinalizeManifest — the engine's own merge
// path — over records in grid order, written tmp+rename, so a served
// manifest is always complete bytes.
func (c *Coordinator) maybeFinishLocked(j *job) {
	if !j.live() || j.progress.Done+j.progress.Failed < j.progress.Total {
		return
	}
	t0 := time.Now()
	runs := make([]sweep.Record, len(j.recs))
	for i, r := range j.recs {
		runs[i] = *r
	}
	m, err := sweep.FinalizeManifest(j.grid, runs)
	var buf bytes.Buffer
	if err == nil {
		err = m.Encode(&buf)
	}
	if err == nil {
		err = writeAtomic(c.fs, c.jobFile(j.id, "manifest.json"), buf.Bytes())
	}
	if err != nil {
		c.finishLocked(j, StateFailed, "manifest: "+err.Error())
		return
	}
	c.emitSpan(j.id, telemetry.Span{Name: "merge", Detail: "manifest.json"}, t0, time.Since(t0))
	c.finishLocked(j, StateDone, "")
}

// finishLocked is the one terminal transition — done, failed, cancelled
// or interrupted. It persists a failed or cancelled marker, settles the
// gauges, counters and tenant count, closes the journal, writes the perf
// summary, releases the per-unit state, and wakes watchers.
func (c *Coordinator) finishLocked(j *job, state, msg string) {
	if !j.live() {
		return
	}
	if state == StateFailed || state == StateCancelled {
		if err := writeJSONAtomic(c.fs, c.jobFile(j.id, "status.json"), persistedStatus{state, msg}); err != nil {
			c.logger.Error("status write failed", "job", j.id, "err", err)
		}
	}
	if j.state == StateQueued {
		c.tm.jobsQueued.Dec()
	} else {
		c.tm.jobsRunning.Dec()
	}
	switch state {
	case StateDone:
		c.tm.jobsDone.Inc()
	case StateFailed:
		c.tm.jobsFailed.Inc()
	case StateCancelled:
		c.tm.jobsCancelled.Inc()
	}
	for _, l := range j.leases {
		if w, ok := c.workers[l.worker]; ok {
			w.leased--
		}
	}
	if j.journal != nil {
		if err := j.journal.Close(); err != nil {
			c.logger.Error("journal close failed", "job", j.id, "err", err)
		}
		j.journal = nil
	}
	if c.active[j.tenant]--; c.active[j.tenant] <= 0 {
		delete(c.active, j.tenant)
	}
	for i, lj := range c.live {
		if lj == j {
			c.live = append(c.live[:i], c.live[i+1:]...)
			break
		}
	}
	j.state, j.err = state, msg
	c.writePerf(j)
	j.release()
	j.bumpLocked()
	lvl := slog.LevelInfo
	if state == StateFailed {
		lvl = slog.LevelError
	}
	c.logger.Log(context.Background(), lvl, "job "+state, "job", j.id, "done", j.progress.Done,
		"failed", j.progress.Failed, "resumed", j.progress.Resumed, "err", msg)
}

// writePerf persists the job's scheduling telemetry (GET /v1/jobs/{id}/perf)
// from the coordinator's own accounting. It is best-effort and off the
// result path: nothing reads perf.json to decide anything.
func (c *Coordinator) writePerf(j *job) {
	start, end := j.started, time.Now()
	if start.IsZero() {
		start = j.admitted
	}
	host, _ := os.Hostname()
	p := j.progress
	info := obs.SweepInfo{
		Total: p.Total, Done: p.Done, Failed: p.Failed, Retried: p.Retried, Resumed: p.Resumed,
		JournalFlushes: j.flushes, WallSeconds: end.Sub(start).Seconds(),
		Host: host, JobID: j.id, Sample: sweep.SampleInfo(j.units),
		StartedAt:  start.UTC().Format(time.RFC3339Nano),
		FinishedAt: end.UTC().Format(time.RFC3339Nano),
	}
	if info.WallSeconds > 0 {
		info.CyclesPerSec = float64(j.cycles) / info.WallSeconds
	}
	var buf bytes.Buffer
	if err := obs.NewPerfManifest(info).Encode(&buf); err == nil {
		_ = os.WriteFile(c.jobFile(j.id, "perf.json"), buf.Bytes(), 0o644)
	}
}

// emitSpan appends one span line to the job's span log. Tracing is
// best-effort and strictly off the result path: any error is ignored, and
// nothing downstream ever reads spans to make a decision.
func (c *Coordinator) emitSpan(id string, sp telemetry.Span, start time.Time, dur time.Duration) {
	f, err := os.OpenFile(c.jobFile(id, "spans.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	telemetry.NewSpanLog(f, id).Emit(sp, start, dur)
}

// status renders the job for the API. Caller holds c.mu.
func (j *job) status() Status {
	return Status{
		ID: j.id, State: j.state, Spec: j.spec, Grid: j.grid.Name,
		Total: j.progress.Total, Error: j.err, Progress: j.progress,
		SubmittedAt: j.submittedAt,
	}
}

// Fleet snapshots the cluster view: registered workers and unit
// accounting across live jobs.
func (c *Coordinator) Fleet() obs.ClusterInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	info := obs.ClusterInfo{Workers: make([]obs.ClusterWorker, 0, len(c.workers))}
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		beat := now.Sub(w.lastBeat).Seconds()
		if w.local {
			beat = 0
		}
		info.Workers = append(info.Workers, obs.ClusterWorker{
			ID: w.id, Addr: w.addr, SimWorkers: w.simWorkers,
			AliveSeconds: now.Sub(w.registeredAt).Seconds(), LastBeatSeconds: beat,
			Leased: w.leased, Done: w.done, Failed: w.failed,
		})
	}
	for _, j := range c.live {
		info.JobsActive++
		info.UnitsDone += j.progress.Done + j.progress.Failed
		for seq, l := range j.leases {
			if j.recs[seq] != nil {
				continue
			}
			if l.worker != "" {
				info.UnitsLeased++
			} else {
				info.UnitsPending++
			}
		}
	}
	return info
}

// Metrics snapshots the JSON /metrics view: a read-only projection of the
// same lock-free instruments the Prometheus exposition serves. Reads are
// relaxed-atomic monitoring snapshots (DESIGN 3.1e): each value is a real
// past value, but the set is not a consistent cut.
func (c *Coordinator) Metrics() obs.ServerInfo {
	tm := c.tm
	hits, misses, size, capacity := c.cache.Stats()
	_, progs := c.runner.ProgramCacheStats()
	return obs.ServerInfo{
		Build:          obs.Build(),
		StartedAt:      c.startedAt.UTC().Format(time.RFC3339Nano),
		UptimeSeconds:  time.Since(c.startedAt).Seconds(),
		JobsSubmitted:  int(tm.jobsSubmitted.Value()),
		JobsQueued:     int(tm.jobsQueued.Value()),
		JobsRunning:    int(tm.jobsRunning.Value()),
		JobsDone:       int(tm.jobsDone.Value()),
		JobsFailed:     int(tm.jobsFailed.Value()),
		JobsCancelled:  int(tm.jobsCancelled.Value()),
		JobsRecovered:  int(tm.jobsRecovered.Value()),
		QueueCap:       c.opts.QueueDepth,
		RateLimited:    int(tm.rateLimited.Value()),
		RunsExecuted:   int(tm.runsExecuted.Value()),
		RunsFromCache:  int(tm.unitsFromCache.Value()),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheSize:      size,
		CacheCap:       capacity,
		HTTPRequests:   int(tm.httpAll.Value()),
		LimiterClients: c.limiter.Clients(),
		RunnerPrograms: progs,
	}
}
