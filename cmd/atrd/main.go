// Command atrd is the ATR job service: an HTTP coordinator that accepts
// simulation and sweep jobs, leases their units to workers, and serves
// merged manifests byte-identical to offline atrsweep. Plain atrd is the
// coordinator plus an in-process worker of -sim-workers slots;
// -coordinator starts no in-process worker and leaves every unit to
// joined workers; -join runs such a worker.
//
//	atrd [-coordinator] [-addr :8437] [-state atrd-state] [-n instr]
//	     [-sim-workers N] [-retries N] [-backoff d]
//	     [-queue N] [-rate r] [-burst N] [-max-active N] [-cache-cap N]
//	     [-heartbeat-timeout d] [-lease-timeout d] [-drain d]
//	     [-log-format text|json] [-log-level debug|info|warn|error] [-pprof]
//	atrd -join http://coordinator:8437 [-name w1] [-addr :8438]
//	     [-sim-workers N] [-retries N] [-backoff d]
//
// Client API (JSON; atrctl speaks it):
//
//	POST   /v1/jobs               submit {"kind":"grid","grid":"fig10"} etc.;
//	                              ?watch=1 streams progress on the same
//	                              connection (NDJSON, or SSE via Accept)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	GET    /v1/jobs/{id}/events   live progress stream
//	GET    /v1/jobs/{id}/manifest deterministic result manifest
//	GET    /v1/jobs/{id}/perf     scheduling telemetry with provenance
//	DELETE /v1/jobs/{id}          cancel
//	GET    /healthz               liveness (503 while draining)
//	GET    /metrics               Prometheus text exposition; the JSON
//	                              view (obs.ServerInfo) with
//	                              Accept: application/json
//	GET    /debug/pprof/...       runtime profiles, only with -pprof
//
// Joined workers register, heartbeat, poll for unit leases and upload
// records on POST /cluster/v1/{register,heartbeat,poll,results}; the
// in-process worker makes none of these calls. Operators read the fleet
// at GET /cluster/v1/workers and set tenant quotas at /cluster/v1/quotas.
//
// Backpressure: a full queue (-queue jobs none of whose units is leased
// yet), an exhausted per-client token bucket, or a tenant at its
// -max-active quota answers 429 with Retry-After. On SIGINT/SIGTERM the
// daemon drains the coordinator before the HTTP server: in-flight units
// finish and are journaled, unfinished jobs park in the state dir as
// interrupted (ending their event streams), parked polls return, and the
// next atrd over the same -state resumes the jobs. A joined worker keeps
// no state, runs -sim-workers slots that each lease one unit at a time,
// and serves only /healthz and /metrics on -addr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atr/internal/server"
)

// newLogger builds the daemon's slog logger from the -log-format and
// -log-level flags. It exits with a usage error on unknown values rather
// than silently falling back — a typo in a service flag should be loud.
func newLogger(format, level string) *slog.Logger {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "atrd: unknown -log-level %q (want debug|info|warn|error)\n", level)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	default:
		fmt.Fprintf(os.Stderr, "atrd: unknown -log-format %q (want text|json)\n", format)
		os.Exit(2)
		return nil
	}
}

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	state := flag.String("state", "atrd-state", "state directory (job specs, journals, manifests)")
	instr := flag.Uint64("n", 40000, "default instructions per run for specs that omit it")
	simWorkers := flag.Int("sim-workers", 0, "simulation slots of the in-process or joined worker (0 selects GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bound on queued jobs, none of whose units is leased yet (beyond it: 429 + Retry-After)")
	rate := flag.Float64("rate", 5, "per-client submissions/sec (negative disables limiting)")
	burst := flag.Int("burst", 10, "per-client submission burst")
	cacheCap := flag.Int("cache-cap", 65536, "content-addressed result cache entries")
	retries := flag.Int("retries", 1, "retries per failing run")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "first-retry backoff (doubles per retry)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	coordinator := flag.Bool("coordinator", false, "start no in-process worker: joined workers execute every unit")
	join := flag.String("join", "", "run as a worker joined to this coordinator URL")
	name := flag.String("name", "", "worker name, stable across restarts (default: hostname)")
	hbTimeout := flag.Duration("heartbeat-timeout", 10*time.Second, "evict joined workers silent this long")
	leaseTimeout := flag.Duration("lease-timeout", 60*time.Second, "reclaim joined workers' unit leases unsatisfied this long")
	maxActive := flag.Int("max-active", 0, "default per-tenant active-job quota (0 = unlimited)")
	flag.Parse()

	switch {
	case *coordinator && *join != "":
		fmt.Fprintln(os.Stderr, "atrd: -coordinator and -join are mutually exclusive")
		os.Exit(2)
	case *queue < 1 || *simWorkers < 0 || *retries < 0:
		fmt.Fprintln(os.Stderr, "atrd: -queue must be >= 1, -sim-workers and -retries >= 0")
		os.Exit(2)
	}
	logger := newLogger(*logFormat, *logLevel)
	if *join != "" {
		os.Exit(runWorker(logger, server.WorkerOptions{
			Coordinator: *join, Name: *name, Addr: *addr,
			SimWorkers: *simWorkers, Retries: *retries, Backoff: *backoff,
			Logger: logger,
		}))
	}

	slots := *simWorkers
	if *coordinator {
		slots = -1
	}
	c, err := server.NewCoordinator(server.Options{
		StateDir:         *state,
		DefaultInstr:     *instr,
		SimWorkers:       slots,
		Retries:          *retries,
		Backoff:          *backoff,
		QueueDepth:       *queue,
		Rate:             *rate,
		Burst:            *burst,
		MaxActive:        *maxActive,
		CacheCap:         *cacheCap,
		HeartbeatTimeout: *hbTimeout,
		LeaseTimeout:     *leaseTimeout,
		Logger:           logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "atrd:", err)
		os.Exit(1)
	}

	// The service mux stays profiler-free; -pprof mounts the profiler on
	// an outer mux so the flag is the only thing deciding exposure.
	var handler http.Handler = c
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", c)
		handler = outer
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "state", *state, "coordinator_only", *coordinator, "pprof", *pprofOn)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "atrd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// The coordinator drains first: that ends event streams and parked
	// polls, which http.Server.Shutdown would otherwise wait for.
	logger.Info("draining", "budget", drain.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := c.Shutdown(dctx); err != nil {
		logger.Error("drain incomplete; journals stay resumable", "err", err)
		os.Exit(1)
	}
	_ = httpSrv.Shutdown(dctx)
	logger.Info("drained cleanly; unfinished jobs will resume on restart")
}

// runWorker joins the fleet: register, heartbeat, poll for unit leases,
// execute them on the engine's per-unit path, upload records. The
// worker's own HTTP surface is just /healthz and /metrics.
func runWorker(logger *slog.Logger, opts server.WorkerOptions) int {
	if opts.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			fmt.Fprintln(os.Stderr, "atrd: -name required (hostname unavailable)")
			return 2
		}
		opts.Name = host
	}
	w := server.NewWorker(opts)
	if opts.Addr != "" {
		httpSrv := &http.Server{Addr: opts.Addr, Handler: w.Handler()}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("worker http", "err", err)
			}
		}()
		defer httpSrv.Close()
	}
	logger.Info("joined", "coordinator", opts.Coordinator, "name", opts.Name, "addr", opts.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "atrd:", err)
		return 1
	}
	logger.Info("worker stopped")
	return 0
}
