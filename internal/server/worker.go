package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"atr/internal/sweep"
)

// WorkerOptions configures a worker daemon.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string

	// Name identifies this worker to the coordinator; it should be
	// stable across restarts so re-registration replaces the old
	// membership entry. Required.
	Name string

	// Addr, optional, is the advertised address of this worker's own
	// /metrics endpoint, surfaced in the fleet view.
	Addr string

	// SimWorkers is the number of slots, each leasing and executing one
	// unit at a time; <= 0 selects GOMAXPROCS.
	SimWorkers int

	// Retries/Backoff are the per-unit retry budget, identical in
	// semantics to the sweep engine's options (sweep.ExecuteUnit runs
	// both).
	Retries int
	Backoff time.Duration

	// Logger receives structured worker logs; nil discards them.
	Logger *slog.Logger
}

// Worker is a joined worker daemon (atrd -join): it registers with a
// coordinator, heartbeats, and runs SimWorkers slots that each poll for
// one unit lease, execute it with the sweep engine's own per-unit path
// over a shared program cache, and upload the record promptly (prompt
// upload is what makes the coordinator's journal a live account of
// cluster progress). Workers hold no durable state: a killed worker loses
// only in-flight units, which the coordinator's lease expiry hands to the
// rest of the fleet.
type Worker struct {
	opts    WorkerOptions
	client  *http.Client
	progs   *sweep.Programs // one immutable image per profile across all assignments
	wm      *workerMetrics
	logger  *slog.Logger
	regLock chan struct{} // capacity 1: held while re-registering

	mu         sync.Mutex
	hbInterval time.Duration
	gen        uint64 // registrations so far
}

// NewWorker creates a worker daemon.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.SimWorkers <= 0 {
		opts.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{
		opts:    opts,
		client:  &http.Client{Timeout: 30 * time.Second},
		progs:   new(sweep.Programs),
		wm:      newWorkerMetrics(opts.Coordinator, opts.Name),
		logger:  opts.Logger,
		regLock: make(chan struct{}, 1),
	}
}

// Handler serves the worker's own observability surface: /healthz and
// /metrics (atr_worker_* families).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, "{\"status\":\"ok\",\"role\":\"worker\",\"name\":%q}\n", w.opts.Name)
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = w.wm.reg.WriteText(rw)
	})
	return mux
}

// Run registers with the coordinator and runs the heartbeat and the slots
// until ctx is cancelled. Transient coordinator unavailability — restarts,
// evictions — is absorbed by re-registration; Run only returns on ctx
// cancellation.
func (w *Worker) Run(ctx context.Context) error {
	if w.opts.Coordinator == "" || w.opts.Name == "" {
		return fmt.Errorf("server: worker needs Coordinator and Name")
	}
	if err := w.registerUntil(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1 + w.opts.SimWorkers)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for range w.opts.SimWorkers {
		go func() {
			defer wg.Done()
			w.slot(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// slot is one execution slot, the loop localSlot runs in-process: lease
// one unit, execute it, upload its record. A poll with nothing to lease
// parks at the coordinator until a unit is leasable, so a slot holds at
// most one lease and sleeps only after a failed poll.
func (w *Worker) slot(ctx context.Context) {
	backoff := firstBackoff
	for ctx.Err() == nil {
		gen := w.generation()
		assignments, err := w.poll(ctx)
		switch {
		case err == nil:
			backoff = firstBackoff
			for _, a := range assignments {
				w.execute(ctx, a)
			}
		case ctx.Err() != nil: // cancelled mid-poll
		case isUnknown(err):
			w.wm.pollErrors.Inc()
			_ = w.reregister(ctx, gen) // fails only once ctx is done
		default:
			w.wm.pollErrors.Inc()
			w.logger.Debug("poll failed", "err", err)
			sleepCtx(ctx, backoff)
			backoff = nextBackoff(backoff)
		}
	}
}

// firstBackoff starts the doubling retry schedule of registration and
// failed polls.
const firstBackoff = 100 * time.Millisecond

// nextBackoff doubles a retry delay until it passes two seconds.
func nextBackoff(d time.Duration) time.Duration {
	if d < 2*time.Second {
		return 2 * d
	}
	return d
}

// registerUntil registers with backoff until success or ctx cancellation.
func (w *Worker) registerUntil(ctx context.Context) error {
	for backoff := firstBackoff; ; backoff = nextBackoff(backoff) {
		err := w.register(ctx)
		if err == nil {
			return nil
		}
		w.logger.Debug("register failed", "err", err)
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
	}
}

// reregister registers again after the coordinator answered 404 to a call
// made under registration gen: it restarted or evicted this worker. The
// slots and the heartbeat loop may all get that answer; only the first
// registers, and the rest find gen moved on. A registration per caller
// would reclaim the leases sibling slots took after the first.
func (w *Worker) reregister(ctx context.Context, gen uint64) error {
	select {
	case w.regLock <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-w.regLock }()
	if w.generation() != gen {
		return nil
	}
	w.wm.registered.Set(0)
	return w.registerUntil(ctx)
}

func (w *Worker) generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	err := w.post(ctx, "/cluster/v1/register", registerRequest{
		Name: w.opts.Name, Addr: w.opts.Addr, SimWorkers: w.opts.SimWorkers,
	}, &resp)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.hbInterval = time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if w.hbInterval <= 0 {
		w.hbInterval = 3 * time.Second
	}
	w.gen++
	w.mu.Unlock()
	w.wm.registered.Set(1)
	w.wm.registrations.Inc()
	w.logger.Info("registered", "coordinator", w.opts.Coordinator, "heartbeat", w.hbInterval.String())
	return nil
}

// heartbeatLoop beats at the coordinator-announced interval for as long
// as the worker runs — including while every slot is deep in a long
// execution, which is exactly when liveness matters. An unknown-worker
// response (coordinator restarted or evicted us) triggers immediate
// re-registration so outstanding uploads are attributed again.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.hbInterval
		w.mu.Unlock()
		if !sleepCtx(ctx, interval) {
			return
		}
		gen := w.generation()
		var out map[string]string
		err := w.post(ctx, "/cluster/v1/heartbeat", heartbeatRequest{Worker: w.opts.Name}, &out)
		switch {
		case err == nil:
			w.wm.heartbeats.Inc()
		case isUnknown(err):
			if w.reregister(ctx, gen) != nil {
				return
			}
		default:
			w.logger.Debug("heartbeat failed", "err", err)
		}
	}
}

// poll asks for one unit lease, parking at the coordinator while there
// is none.
func (w *Worker) poll(ctx context.Context) ([]Assignment, error) {
	w.wm.polls.Inc()
	var resp pollResponse
	if err := w.post(ctx, "/cluster/v1/poll", pollRequest{Worker: w.opts.Name, Max: 1}, &resp); err != nil {
		return nil, err
	}
	return resp.Assignments, nil
}

// execute runs one assignment's units in order, uploading each record as
// it completes. Every unit goes through sweep.ExecuteUnit — the engine's
// own retry/panic-isolation path — over unitRunner, the runner the
// in-process worker uses too, so a unit executed anywhere fails (or
// succeeds) with byte-identical records.
func (w *Worker) execute(ctx context.Context, a Assignment) {
	g, err := a.Spec.ResolveGrid(a.Instr)
	if err != nil {
		w.logger.Error("cannot resolve assigned spec", "job", a.Job, "err", err)
		w.upload(ctx, uploadRequest{Worker: w.opts.Name, Job: a.Job, SpecError: err.Error()})
		return
	}
	units := g.Units()
	fn := unitRunner(w.progs, g.Instr, a.Spec.InjectPanic)
	for _, seq := range a.Seqs {
		if seq < 0 || seq >= len(units) {
			w.upload(ctx, uploadRequest{
				Worker: w.opts.Name, Job: a.Job,
				SpecError: fmt.Sprintf("assigned seq %d outside grid of %d units", seq, len(units)),
			})
			return
		}
		rec := sweep.ExecuteUnit(ctx, units[seq], fn, w.opts.Retries, w.opts.Backoff, nil)
		if ctx.Err() != nil && rec.Err != "" {
			// Shutdown mid-retry: drop the incomplete record; the lease
			// expires and another worker re-executes the unit.
			return
		}
		w.wm.unitsExecuted.Inc()
		if rec.Err != "" {
			w.wm.unitsFailed.Inc()
		}
		w.upload(ctx, uploadRequest{Worker: w.opts.Name, Job: a.Job, Records: []sweep.Record{rec}})
	}
}

// upload delivers records with bounded retry. A drop after retries is
// safe — the coordinator's lease expires and the unit re-executes
// elsewhere, producing the identical record — so the worker never blocks
// forever on a dead coordinator. A 404 (job or worker gone) drops
// immediately.
func (w *Worker) upload(ctx context.Context, req uploadRequest) {
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var resp uploadResponse
		err := w.post(ctx, "/cluster/v1/results", req, &resp)
		if err == nil {
			w.wm.uploads.Add(uint64(len(req.Records)))
			return
		}
		if isUnknown(err) || attempt >= 4 || ctx.Err() != nil {
			w.wm.uploadErrors.Inc()
			w.logger.Warn("upload dropped", "job", req.Job, "records", len(req.Records), "err", err)
			return
		}
		if !sleepCtx(ctx, backoff) {
			return
		}
		backoff *= 2
	}
}

// statusError is a non-2xx coordinator response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("coordinator: %d: %s", e.code, e.msg) }

func isUnknown(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusNotFound
}

func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var ae apiError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ae)
		return &statusError{code: resp.StatusCode, msg: ae.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
