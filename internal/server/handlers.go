package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"atr/internal/telemetry"
)

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	for _, rt := range []struct {
		pattern, label string
		h              http.HandlerFunc
	}{
		{"GET /healthz", "healthz", c.handleHealth},
		{"GET /metrics", "metrics", c.handleMetrics},
		// Client API.
		{"POST /v1/jobs", "submit", c.handleSubmit},
		{"GET /v1/jobs", "list", c.handleList},
		{"GET /v1/jobs/{id}", "status", c.handleStatus},
		{"DELETE /v1/jobs/{id}", "cancel", c.handleCancel},
		{"GET /v1/jobs/{id}/events", "events", c.handleEvents},
		{"GET /v1/jobs/{id}/manifest", "manifest", c.handleManifest},
		{"GET /v1/jobs/{id}/perf", "perf", c.handlePerf},
		// Worker API.
		{"POST /cluster/v1/register", "register", c.handleRegister},
		{"POST /cluster/v1/heartbeat", "heartbeat", c.handleHeartbeat},
		{"POST /cluster/v1/poll", "poll", c.handlePoll},
		{"POST /cluster/v1/results", "results", c.handleResults},
		// Fleet API.
		{"GET /cluster/v1/workers", "workers", c.handleWorkers},
		{"GET /cluster/v1/quotas", "quotas", c.handleQuotasGet},
		{"PUT /cluster/v1/quotas", "quotas", c.handleQuotasPut},
	} {
		c.mux.HandleFunc(rt.pattern, c.instrument(rt.label, rt.h))
	}
}

// instrument wraps a handler with the per-route latency histogram, the
// status-class counter, and one structured request log line — at debug
// level for scrape and worker-API traffic, which would otherwise drown the
// job log. The wrapped writer passes Flush through, so streaming handlers
// keep working; their recorded latency covers the whole stream.
func (c *Coordinator) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := c.tm.httpDur[route]
	byClass := c.tm.httpReq[route]
	lvl := slog.LevelInfo
	switch route {
	case "healthz", "metrics", "register", "heartbeat", "poll", "results":
		lvl = slog.LevelDebug
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		dur := time.Since(t0)
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		hist.Observe(dur)
		byClass[codeClass(code)].Inc()
		c.tm.httpAll.Inc()
		c.logger.Log(r.Context(), lvl, "request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", code, "dur_ms", float64(dur.Microseconds())/1000,
			"client", ClientKey(r))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics negotiates between the two views of the one instrument
// set: Prometheus text exposition by default (what a scraper expects), the
// JSON ServerInfo when the client asks for application/json (atrctl does).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, c.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = c.tm.reg.WriteText(w)
}

// --- client API ---

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := ClientKey(r)
	if ok, retry := c.limiter.Allow(tenant, time.Now()); !ok {
		c.tm.rateLimited.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	var spec JobSpec
	if err := decodeBody(w, r, &spec, 1<<20); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	j, st, code, err := c.submit(spec, tenant)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("watch") != "1" {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if spec.Ephemeral {
		// The submitting connection owns the job: a disconnect cancels it.
		go func() {
			<-r.Context().Done()
			c.cancel(j)
		}()
	}
	c.streamEvents(w, r, j)
}

// submit is the only admission path: it validates the spec, enforces the
// tenant quota and the queue bound, persists the job, and satisfies what
// it can from the result cache before any unit is leased.
func (c *Coordinator) submit(spec JobSpec, tenant string) (*job, Status, int, error) {
	t0 := time.Now()
	g, err := spec.ResolveGrid(c.opts.DefaultInstr)
	if err != nil {
		return nil, Status{}, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, Status{}, http.StatusServiceUnavailable, fmt.Errorf("daemon is shutting down")
	}
	if max := c.quotaLocked(tenant); max > 0 && c.active[tenant] >= max {
		c.tm.quotaRejected.Inc()
		return nil, Status{}, http.StatusTooManyRequests,
			fmt.Errorf("tenant %q has %d active jobs (quota %d)", tenant, c.active[tenant], max)
	}
	if n := int(c.tm.jobsQueued.Value()); n >= c.opts.QueueDepth {
		return nil, Status{}, http.StatusTooManyRequests, fmt.Errorf("job queue is full (%d queued)", n)
	}
	id := fmt.Sprintf("j%06d", c.nextID)
	j, err := newJob(id, tenant, spec, g)
	if err != nil {
		return nil, Status{}, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err)
	}
	c.nextID++
	j.submittedAt = time.Now().UTC().Format(time.RFC3339Nano)
	if err := c.persistSubmit(j); err != nil {
		if j.journal != nil {
			j.journal.Close()
		}
		return nil, Status{}, http.StatusInternalServerError, fmt.Errorf("job store: %w", err)
	}
	c.admitLocked(j)
	c.tm.jobsSubmitted.Inc()
	c.emitSpan(id, telemetry.Span{Name: "submit", Detail: g.Name}, t0, time.Since(t0))
	c.logger.Info("job submitted", "job", id, "tenant", tenant, "grid", g.Name, "units", j.progress.Total)
	c.satisfyFromCacheLocked(j)
	c.maybeFinishLocked(j)
	return j, j.status(), 0, nil
}

// quotaLocked resolves the effective active-job ceiling for a tenant.
func (c *Coordinator) quotaLocked(tenant string) int {
	if max, ok := c.quotas[tenant]; ok {
		return max
	}
	return c.opts.MaxActive
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]Status, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id].status())
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves the {id} path value and snapshots the job's status.
func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) (*job, Status, bool) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	var st Status
	if ok {
		st = j.status()
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + r.PathValue("id")})
	}
	return j, st, ok
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if _, st, ok := c.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, st)
	}
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, _, ok := c.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, c.cancel(j))
	}
}

// cancel ends a live job as cancelled. Units in flight on a worker run to
// completion; their records only feed the result cache.
func (c *Coordinator) cancel(j *job) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked(j, StateCancelled, "cancelled")
	return j.status()
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, _, ok := c.lookup(w, r); ok {
		c.streamEvents(w, r, j)
	}
}

// streamEvents writes the job's event feed until the job reaches a
// terminal state or the client goes away: NDJSON by default, SSE when the
// client asks for text/event-stream. Watchers wake per change notification
// and read current state, so updates coalesce under load but the terminal
// status is always delivered: a status event per state change, a progress
// event per change of the counts.
func (c *Coordinator) streamEvents(w http.ResponseWriter, r *http.Request, j *job) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	send := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	snapshot := func() (Status, <-chan struct{}) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return j.status(), j.changed
	}

	st, changed := snapshot()
	if !send(Event{Type: "status", Job: j.id, State: st.State, Error: st.Error}) {
		return
	}
	for !terminal(st.State) {
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		prev := st
		st, changed = snapshot()
		if st.Progress != prev.Progress {
			p := st.Progress
			if !send(Event{Type: "progress", Job: j.id, Progress: &p}) {
				return
			}
		}
		if st.State != prev.State && !send(Event{Type: "status", Job: j.id, State: st.State, Error: st.Error}) {
			return
		}
	}
}

// handleManifest serves the merged manifest: the exact bytes written at
// job completion. Comparing this response against an offline atrsweep
// -out file via cmp is the service's acceptance check.
func (c *Coordinator) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, st, ok := c.lookup(w, r)
	if !ok {
		return
	}
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict, apiError{Error: "manifest not available", State: st.State})
		return
	}
	t0 := time.Now()
	serveFile(w, c.jobFile(j.id, "manifest.json"))
	c.emitSpan(j.id, telemetry.Span{Name: "serve", Detail: "manifest.json"}, t0, time.Since(t0))
}

// handlePerf serves the job's scheduling telemetry, written at its
// terminal transition.
func (c *Coordinator) handlePerf(w http.ResponseWriter, r *http.Request) {
	j, st, ok := c.lookup(w, r)
	if !ok {
		return
	}
	path := c.jobFile(j.id, "perf.json")
	if !terminal(st.State) || !fileExists(path) {
		writeJSON(w, http.StatusConflict, apiError{Error: "perf telemetry not available", State: st.State})
		return
	}
	serveFile(w, path)
}

func serveFile(w http.ResponseWriter, path string) {
	f, err := os.Open(path)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// --- worker API ---

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil || req.Name == "" || req.Name == localWorker {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad registration (a name other than " + localWorker + " is required)"})
		return
	}
	now := time.Now()
	c.mu.Lock()
	if prev, ok := c.workers[req.Name]; ok {
		// A restarted daemon re-registering: its old leases are orphaned,
		// so return them to pending immediately.
		for _, j := range c.live {
			for seq, l := range j.leases {
				if l.worker == prev.id {
					c.reclaimLocked(j, seq)
				}
			}
		}
	}
	c.workers[req.Name] = &workerState{
		id: req.Name, addr: req.Addr, simWorkers: req.SimWorkers,
		registeredAt: now, lastBeat: now,
	}
	c.tm.workersRegistered.Inc()
	c.mu.Unlock()
	c.logger.Info("worker registered", "worker", req.Name, "addr", req.Addr)
	writeJSON(w, http.StatusOK, registerResponse{
		Worker:          req.Name,
		HeartbeatMillis: (c.opts.HeartbeatTimeout / 3).Milliseconds(),
		LeaseMillis:     c.opts.LeaseTimeout.Milliseconds(),
	})
}

// beat records a sign of life from a joined worker and returns it, or nil
// if the worker is not registered (evicted, or the coordinator restarted).
func (c *Coordinator) beatLocked(name string) *workerState {
	wk, ok := c.workers[name]
	if !ok || wk.local {
		return nil
	}
	wk.lastBeat = time.Now()
	return wk
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad heartbeat"})
		return
	}
	c.mu.Lock()
	wk := c.beatLocked(req.Worker)
	c.mu.Unlock()
	if wk == nil {
		// The worker re-registers on this answer.
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown worker " + req.Worker})
		return
	}
	c.tm.heartbeats.Inc()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handlePoll leases up to Max of the oldest pending units to a joined
// worker. With nothing to lease the poll parks on c.idle, as an idle
// in-process slot does, until a unit may be leasable, the worker hangs
// up, the coordinator drains, or pollPark passes. A draining coordinator
// answers 503, so workers back off instead of re-polling.
func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad poll"})
		return
	}
	max := req.Max
	if max <= 0 || max > pollMax {
		max = pollMax
	}
	park := time.NewTimer(pollPark)
	defer park.Stop()
	c.mu.Lock()
	wk := c.beatLocked(req.Worker)
	c.expireLocked(time.Now())
	for wk != nil && !c.closed && r.Context().Err() == nil {
		out, idle := c.leaseLocked(wk, max, time.Now()), c.idle
		c.mu.Unlock()
		if len(out) > 0 {
			writeJSON(w, http.StatusOK, pollResponse{Assignments: out})
			return
		}
		select {
		case <-idle:
		case <-r.Context().Done():
		case <-c.ctx.Done():
		case <-park.C:
			writeJSON(w, http.StatusOK, pollResponse{})
			return
		}
		c.mu.Lock()
		c.expireLocked(time.Now())
		wk = c.workers[req.Worker] // nil once evicted
	}
	closed := c.closed
	c.mu.Unlock()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "daemon is shutting down"})
	case wk == nil:
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown worker " + req.Worker})
	}
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if err := decodeBody(w, r, &req, 64<<20); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad upload"})
		return
	}
	var resp uploadResponse
	c.mu.Lock()
	c.beatLocked(req.Worker)
	j, ok := c.jobs[req.Job]
	switch {
	case !ok:
	case req.SpecError != "":
		c.finishLocked(j, StateFailed, "worker "+req.Worker+" cannot resolve spec: "+req.SpecError)
	default:
		for _, rec := range req.Records {
			if c.deliverLocked(j, req.Worker, rec) {
				resp.Accepted++
			} else {
				resp.Duplicate++
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		// The job store is authoritative: nothing to resume the records into.
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + req.Job})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- fleet API ---

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleQuotasGet(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	v := c.quotaViewLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleQuotasPut(w http.ResponseWriter, r *http.Request) {
	var upd quotaUpdate
	if err := decodeBody(w, r, &upd, 1<<16); err != nil || upd.Tenant == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad quota update (want {tenant, max_active})"})
		return
	}
	if upd.MaxActive < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "max_active must be >= 0 (0 removes the override)"})
		return
	}
	c.mu.Lock()
	if upd.MaxActive == 0 {
		delete(c.quotas, upd.Tenant)
	} else {
		c.quotas[upd.Tenant] = upd.MaxActive
	}
	v := c.quotaViewLocked()
	err := writeJSONAtomic(c.fs, c.quotaFile(), v)
	c.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "persist quotas: " + err.Error()})
		return
	}
	c.logger.Info("quota updated", "tenant", upd.Tenant, "max_active", upd.MaxActive)
	writeJSON(w, http.StatusOK, v)
}
