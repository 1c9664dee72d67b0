package server

import (
	"net/http"
	"time"

	"atr/internal/obs"
	"atr/internal/telemetry"
)

// httpRoutes is every route's telemetry label, fixed at startup so the
// per-request record path is a map lookup done once at registration
// time, never per request.
var httpRoutes = []string{
	"healthz", "metrics", "submit", "list", "status", "cancel", "events", "manifest", "perf",
	"register", "heartbeat", "poll", "results", "workers", "quotas",
}

// httpCodeClasses buckets response codes for the request counter.
var httpCodeClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// metrics is the coordinator's one instrument set, one family per
// quantity. GET /metrics exposes it as Prometheus text and
// Coordinator.Metrics is its JSON view. Every instrument changes under
// the coordinator's lock or is a lock-free counter; collectors read other
// subsystems only at scrape time.
type metrics struct {
	reg *telemetry.Registry

	jobsSubmitted *telemetry.Counter
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsCancelled *telemetry.Counter
	jobsRecovered *telemetry.Counter
	jobsQueued    *telemetry.Gauge
	jobsRunning   *telemetry.Gauge

	rateLimited   *telemetry.Counter
	quotaRejected *telemetry.Counter

	runsExecuted    *telemetry.Counter
	unitsFromCache  *telemetry.Counter
	unitsDispatched *telemetry.Counter
	unitsStolen     *telemetry.Counter
	dupUploads      *telemetry.Counter
	badUploads      *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter

	workersRegistered *telemetry.Counter
	workersEvicted    *telemetry.Counter
	heartbeats        *telemetry.Counter

	queueWait   *telemetry.LatencyHistogram
	runDuration *telemetry.LatencyHistogram

	httpDur map[string]*telemetry.LatencyHistogram   // by route
	httpReq map[string]map[string]*telemetry.Counter // route -> code class
	httpAll telemetry.Counter                        // JSON-view total, not registered
}

func newMetrics() *metrics {
	reg := telemetry.NewRegistry()
	tm := &metrics{
		reg:               reg,
		jobsSubmitted:     reg.Counter("atr_jobs_submitted_total", "Jobs accepted by the admission path."),
		jobsDone:          reg.Counter("atr_jobs_done_total", "Jobs that finished with a manifest."),
		jobsFailed:        reg.Counter("atr_jobs_failed_total", "Jobs that ended in a terminal failure."),
		jobsCancelled:     reg.Counter("atr_jobs_cancelled_total", "Jobs cancelled by a client or disconnect."),
		jobsRecovered:     reg.Counter("atr_jobs_recovered_total", "Unfinished jobs resumed from the state dir at startup."),
		jobsQueued:        reg.Gauge("atr_jobs_queued", "Jobs none of whose units is leased yet."),
		jobsRunning:       reg.Gauge("atr_jobs_running", "Jobs with at least one unit leased and no terminal state."),
		rateLimited:       reg.Counter("atr_rate_limited_total", "Submissions refused with 429 by the token bucket."),
		quotaRejected:     reg.Counter("atr_cluster_quota_rejected_total", "Submissions refused with 429 by a tenant's active-job quota."),
		runsExecuted:      reg.Counter("atr_runs_executed_total", "Executed run records accepted from workers."),
		unitsFromCache:    reg.Counter("atr_cluster_units_from_cache_total", "Grid units satisfied by the result cache or a recovered journal."),
		unitsDispatched:   reg.Counter("atr_cluster_units_dispatched_total", "Unit leases granted to workers."),
		unitsStolen:       reg.Counter("atr_cluster_units_stolen_total", "Leases reclaimed from slow or dead workers for steal-back."),
		dupUploads:        reg.Counter("atr_cluster_duplicate_uploads_total", "Records for units already recorded or jobs already ended (discarded)."),
		badUploads:        reg.Counter("atr_cluster_bad_uploads_total", "Uploaded records whose key matches no unit of the job."),
		cacheHits:         reg.Counter("atr_result_cache_hits_total", "Result cache lookups that hit."),
		cacheMisses:       reg.Counter("atr_result_cache_misses_total", "Result cache lookups that missed."),
		workersRegistered: reg.Counter("atr_cluster_workers_registered_total", "Worker registrations accepted (including re-registrations)."),
		workersEvicted:    reg.Counter("atr_cluster_workers_evicted_total", "Workers evicted after missing heartbeats."),
		heartbeats:        reg.Counter("atr_cluster_heartbeats_total", "Heartbeats received from registered workers."),
		queueWait:         reg.Histogram("atr_queue_wait_seconds", "Time from job admission to its first unit lease.", nil),
		runDuration:       reg.Histogram("atr_run_duration_seconds", "Wall-clock duration of one unit executed in-process (including retries).", nil),
		httpDur:           make(map[string]*telemetry.LatencyHistogram, len(httpRoutes)),
		httpReq:           make(map[string]map[string]*telemetry.Counter, len(httpRoutes)),
	}
	for _, route := range httpRoutes {
		tm.httpDur[route] = reg.Histogram("atr_http_request_duration_seconds",
			"HTTP handler latency (streaming handlers measure the full stream).", nil,
			telemetry.Label{Key: "route", Value: route})
		byClass := make(map[string]*telemetry.Counter, len(httpCodeClasses))
		for _, class := range httpCodeClasses {
			byClass[class] = reg.Counter("atr_http_requests_total", "HTTP requests by route and status class.",
				telemetry.Label{Key: "route", Value: route}, telemetry.Label{Key: "code", Value: class})
		}
		tm.httpReq[route] = byClass
	}
	return tm
}

// registerCollectors adds the exposition-time callbacks that read values
// guarded by their owner's synchronization: fleet and unit accounting,
// cache and limiter occupancy, the program cache, uptime, and build
// identity. They run only during a scrape, never on a record path.
func (tm *metrics) registerCollectors(c *Coordinator) {
	registerBuildInfo(tm.reg)
	tm.reg.GaugeFunc("atr_uptime_seconds", "Seconds since daemon start.",
		func() float64 { return time.Since(c.startedAt).Seconds() })
	tm.reg.GaugeFunc("atr_queue_capacity", "Bound on queued jobs.",
		func() float64 { return float64(c.opts.QueueDepth) })
	tm.reg.GaugeFunc("atr_rate_clients", "Token buckets currently tracked by the rate limiter.",
		func() float64 { return float64(c.limiter.Clients()) })
	tm.reg.GaugeFunc("atr_result_cache_size", "Records resident in the result cache.",
		func() float64 { _, _, size, _ := c.cache.Stats(); return float64(size) })
	tm.reg.GaugeFunc("atr_result_cache_capacity", "Result cache capacity.",
		func() float64 { _, _, _, capacity := c.cache.Stats(); return float64(capacity) })
	tm.reg.CounterFunc("atr_runner_program_hits_total", "In-process worker program-cache hits.",
		func() uint64 { h, _ := c.runner.ProgramCacheStats(); return h })
	tm.reg.GaugeFunc("atr_runner_programs_cached", "Program images resident in the in-process worker's cache.",
		func() float64 { _, n := c.runner.ProgramCacheStats(); return float64(n) })
	tm.reg.GaugeFunc("atr_cluster_workers", "Workers registered and live, the in-process worker included.",
		func() float64 { return float64(len(c.Fleet().Workers)) })
	tm.reg.GaugeFunc("atr_cluster_jobs_active", "Jobs queued or running.",
		func() float64 { return float64(c.Fleet().JobsActive) })
	tm.reg.GaugeFunc("atr_cluster_units_pending", "Units of live jobs awaiting a lease.",
		func() float64 { return float64(c.Fleet().UnitsPending) })
	tm.reg.GaugeFunc("atr_cluster_units_leased", "Units currently under a worker lease.",
		func() float64 { return float64(c.Fleet().UnitsLeased) })
}

func registerBuildInfo(reg *telemetry.Registry) {
	b := obs.Build()
	reg.GaugeFunc("atr_build_info", "Build identity (value is always 1).",
		func() float64 { return 1 },
		telemetry.Label{Key: "go_version", Value: b.GoVersion},
		telemetry.Label{Key: "revision", Value: b.Revision})
}

// workerMetrics is a joined worker daemon's instrument set, served from
// its own /metrics endpoint when the worker advertises an address.
type workerMetrics struct {
	reg *telemetry.Registry

	registrations *telemetry.Counter
	heartbeats    *telemetry.Counter
	polls         *telemetry.Counter
	pollErrors    *telemetry.Counter
	unitsExecuted *telemetry.Counter
	unitsFailed   *telemetry.Counter
	uploads       *telemetry.Counter
	uploadErrors  *telemetry.Counter
	registered    *telemetry.Gauge
}

func newWorkerMetrics(coordinator, name string) *workerMetrics {
	reg := telemetry.NewRegistry()
	wm := &workerMetrics{
		reg:           reg,
		registrations: reg.Counter("atr_worker_registrations_total", "Registrations sent to the coordinator (including re-registrations)."),
		heartbeats:    reg.Counter("atr_worker_heartbeats_total", "Heartbeats delivered to the coordinator."),
		polls:         reg.Counter("atr_worker_polls_total", "Work polls sent to the coordinator."),
		pollErrors:    reg.Counter("atr_worker_poll_errors_total", "Work polls that failed (coordinator unreachable or refused)."),
		unitsExecuted: reg.Counter("atr_worker_units_executed_total", "Grid units executed to completion on this worker."),
		unitsFailed:   reg.Counter("atr_worker_units_failed_total", "Grid units recorded as failed after exhausting retries."),
		uploads:       reg.Counter("atr_worker_uploads_total", "Run records uploaded to the coordinator."),
		uploadErrors:  reg.Counter("atr_worker_upload_errors_total", "Record uploads abandoned after bounded retries."),
		registered:    reg.Gauge("atr_worker_registered", "1 while the worker believes it is registered."),
	}
	registerBuildInfo(reg)
	reg.GaugeFunc("atr_worker_info", "Worker identity (value is always 1).",
		func() float64 { return 1 },
		telemetry.Label{Key: "name", Value: name},
		telemetry.Label{Key: "coordinator", Value: coordinator})
	return wm
}

// statusWriter captures the response code for telemetry while passing
// Flush through — the streaming handlers (NDJSON/SSE) depend on it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func codeClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}
