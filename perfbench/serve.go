package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atr/internal/config"
	"atr/internal/server"
	"atr/internal/sweep"
	"atr/internal/workload"
)

const (
	serveClients     = 2      // closed-loop clients: atrctl callers submit and wait
	clusterWorkers   = 2      // -join workers of one simulation slot: one per core
	minJobs          = 100    // an untraced window runs until job_ms_p90 has 10 samples beyond it
	serveChains      = 12     // instruction budgets per client before its stream repeats
	serveInstrBase   = 20_000 // instructions per unit
	serveSetupTrials = 7      // cold fleet set-ups per run; setup_s is their median
	readyPoll        = 500 * time.Microsecond
	readyTimeout     = 15 * time.Second
)

// serveRegs are the register-file sizes of every job's grid.
var serveRegs = []int{64, 224}

// chainInstr is the instruction budget of client c's k-th chain. Budgets
// differ per client and chain, so no two clients ever share a run key and
// every chain starts with cold keys.
func chainInstr(c, k int) uint64 { return serveInstrBase + uint64(k*serveClients+c) }

// job is one op of a serve workload: a declared grid of one or two
// profiles × serveRegs × every scheme.
type job struct {
	instr    uint64
	profiles []string
}

// jobAt returns a client's i-th job. A client walks its profile order in
// chains: a chain at one instruction budget opens with a job of the first
// profile alone, then job k declares profiles k-1 and k, so every job
// after the opener repeats the previous job's profile (8 result-cache
// hits) and adds a new one (8 simulations, journal appends and cache
// inserts). Job 0, the opener of the first chain, is the warm-up.
func jobAt(perm []string, c, i int) job {
	per := len(perm)
	chain := (i / per) % serveChains
	k := i % per
	j := job{instr: chainInstr(c, chain)}
	if k == 0 {
		j.profiles = []string{perm[0]}
	} else {
		j.profiles = []string{perm[k-1], perm[k]}
	}
	return j
}

// labels returns the golden labels of the job's units.
func (j job) labels() []string {
	var out []string
	for _, p := range j.profiles {
		for _, regs := range serveRegs {
			for _, s := range config.Schemes() {
				out = append(out, runLabel(p, regs, s.String(), j.instr))
			}
		}
	}
	return out
}

func (j job) spec() server.JobSpec {
	var schemes []string
	for _, s := range config.Schemes() {
		schemes = append(schemes, s.String())
	}
	return server.JobSpec{
		Kind: "grid", Name: "perfbench", Instr: j.instr,
		Profiles: j.profiles, PhysRegs: serveRegs, Schemes: schemes,
	}
}

// daemon is one atrd process of the fleet.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startDaemon launches atrd with args, logging to dir/<name>.log. The
// daemon is killed if this process dies first.
func (r *run) startDaemon(dir, name, addr string, args ...string) (*daemon, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(r.binDir, "atrd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		log.Close()
		close(d.exited)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that outlives the drain is killed.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(readyTimeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// fleet is the set of daemons serving one workload.
type fleet struct {
	url     string    // the /v1/jobs endpoint: the node or the coordinator
	daemons []*daemon // node, or coordinator then workers
	workers []string  // worker /metrics base URLs (cluster only)
}

func (f *fleet) stop() {
	for i := len(f.daemons) - 1; i >= 0; i-- {
		f.daemons[i].stop()
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var probeClient = &http.Client{Timeout: time.Second}

// waitReady polls url every readyPoll until check accepts a 200 response
// body. atrd logs that it is serving before its listener is bound, so
// readiness is observed, never inferred from the log.
func waitReady(d *daemon, url string, check func([]byte) bool) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up: %v", d.name, d.err)
		default:
		}
		if resp, err := probeClient.Get(url); err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && check(b) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s after %v", d.name, url, readyTimeout)
		}
		time.Sleep(readyPoll)
	}
}

func anyBody([]byte) bool { return true }

// startFleet launches the workload's daemons with default flags except
// their addresses, a fresh state directory, and a rate limit no closed
// loop can reach (the limiter still runs on every submit). It returns
// once the fleet can take jobs.
func (r *run) startFleet(dir string, cluster bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-state", filepath.Join(dir, "state"), "-rate", "1000000", "-burst", "1000000"}
	name := "atrd"
	if cluster {
		args = append(args, "-coordinator")
		name = "coordinator"
	}
	head, err := r.startDaemon(dir, name, addr, args...)
	if err != nil {
		return nil, err
	}
	f := &fleet{url: head.url, daemons: []*daemon{head}}
	if err := waitReady(head, head.url+"/healthz", anyBody); err != nil {
		f.stop()
		return nil, err
	}
	if !cluster {
		return f, nil
	}
	for i := 1; i <= clusterWorkers; i++ {
		waddr, err := freeAddr()
		if err != nil {
			f.stop()
			return nil, err
		}
		w, err := r.startDaemon(dir, fmt.Sprintf("w%d", i), waddr,
			"-join", head.url, "-name", fmt.Sprintf("w%d", i), "-sim-workers", "1")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, w)
		f.workers = append(f.workers, w.url)
	}
	if err := waitReady(head, head.url+"/cluster/v1/workers", fleetOf(clusterWorkers)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// fleetOf accepts a /cluster/v1/workers body listing at least n workers.
func fleetOf(n int) func([]byte) bool {
	return func(b []byte) bool {
		var v struct {
			Workers []json.RawMessage `json:"workers"`
		}
		return json.Unmarshal(b, &v) == nil && len(v.Workers) >= n
	}
}

// client is one closed-loop caller: it submits a job, follows the job's
// NDJSON event stream to its terminal event, then fetches and verifies
// the manifest before submitting the next.
type client struct {
	id   int
	perm []string
	next int             // index of the next job in the stream
	seen map[string]bool // labels this client's completed jobs cached
	http *http.Client
}

// jobResult is the timeline and account of one job.
type jobResult struct {
	start, submitted, firstEvent, running, firstProgress, terminal, done time.Time

	units, hits int // units declared; of them, designed result-cache hits
	committed   uint64
	cycles      uint64
	stalls      uint64
	records     []sweep.Record
	manifestLen int
	mergeMs     float64 // re-merging the served records offline
	encodeMs    float64
	err         error
	refused     bool // HTTP 429
}

func (res *jobResult) total() time.Duration { return res.done.Sub(res.start) }

// run executes the client's next job against f and verifies its output.
func (c *client) run(ctx context.Context, f *fleet, g *goldenTable) jobResult {
	j := jobAt(c.perm, c.id, c.next)
	c.next++
	labels := j.labels()
	res := jobResult{units: len(labels)}
	for _, l := range labels {
		if c.seen[l] {
			res.hits++
		}
	}
	body, err := json.Marshal(j.spec())
	if err != nil {
		res.err = err
		return res
	}
	res.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/jobs?watch=1", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-ATR-Client", fmt.Sprintf("perfbench-%d", c.id))
	resp, err := c.http.Do(req)
	if err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	res.submitted = time.Now()
	id, state, err := res.follow(resp)
	if err != nil {
		res.err = err
		return res
	}
	if state != server.StateDone {
		res.err = fmt.Errorf("job %s ended %s", id, state)
		return res
	}
	if err := res.verify(ctx, c.http, f.url+"/v1/jobs/"+id+"/manifest", j, g); err != nil {
		res.err = fmt.Errorf("job %s: %w", id, err)
		return res
	}
	res.done = time.Now()
	for _, l := range labels {
		c.seen[l] = true
	}
	return res
}

// follow reads the job's event stream up to its terminal status event,
// stamping the first event, the running transition and the first
// progress event. It returns the job ID and terminal state.
func (res *jobResult) follow(resp *http.Response) (id, state string, err error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		res.refused = resp.StatusCode == http.StatusTooManyRequests
		return "", "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", "", fmt.Errorf("event stream: %w", err)
		}
		if res.firstEvent.IsZero() {
			res.firstEvent, id = now, ev.Job
		}
		switch ev.Type {
		case "progress":
			if res.firstProgress.IsZero() {
				res.firstProgress = now
			}
		case "status":
			if ev.State == server.StateRunning && res.running.IsZero() {
				res.running = now
			}
			switch ev.State {
			case server.StateDone, server.StateFailed, server.StateCancelled, server.StateInterrupted:
				res.terminal = now
				return id, ev.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return id, "", fmt.Errorf("event stream: %w", err)
	}
	return id, "", fmt.Errorf("event stream ended before a terminal event")
}

// verify fetches the served manifest and checks it: every record equals
// the offline golden record for its key, and re-merging the records
// offline with sweep.FinalizeManifest over the job's resolved grid
// encodes to the served bytes exactly (served = offline).
func (res *jobResult) verify(ctx context.Context, hc *http.Client, url string, j job, g *goldenTable) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("manifest: HTTP %d", resp.StatusCode)
	}
	m, err := sweep.DecodeManifest(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if m.Grid.Total != res.units || m.Grid.Instr != j.instr {
		return fmt.Errorf("manifest declares %d units at %d instructions, job %d at %d", m.Grid.Total, m.Grid.Instr, res.units, j.instr)
	}
	if bad, errs := g.checkManifest(m); bad > 0 || len(errs) > 0 {
		return fmt.Errorf("%d records differ from offline: %v", bad, errs[0])
	}
	grid, err := j.spec().ResolveGrid(0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	offline, err := sweep.FinalizeManifest(grid, m.Runs)
	if err != nil {
		return err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := offline.Encode(&buf); err != nil {
		return err
	}
	res.mergeMs, res.encodeMs = ms(t1.Sub(t0)), ms(time.Since(t1))
	if !bytes.Equal(buf.Bytes(), b) {
		return fmt.Errorf("served manifest bytes differ from the offline merge of its records")
	}
	res.manifestLen = len(b)
	res.records = m.Runs
	for _, rec := range m.Runs {
		res.committed += rec.Result.Committed
		res.cycles += rec.Result.Cycles
		res.stalls += rec.Result.RenameStalls
	}
	return nil
}

// counters is one /metrics scrape: every sample summed by metric name.
type counters map[string]float64

// scrape reads a Prometheus text exposition and returns its duration.
func scrape(url string) (counters, time.Duration, error) {
	t0 := time.Now()
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	c := make(counters)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			c[name] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// snapshot is the fleet's counters at one instant.
type snapshot struct {
	head    counters
	workers []counters
	scrapes []float64 // ms per scrape
}

func (f *fleet) snapshot() (snapshot, error) {
	var s snapshot
	c, d, err := scrape(f.url)
	if err != nil {
		return s, err
	}
	s.head, s.scrapes = c, append(s.scrapes, ms(d))
	for _, w := range f.workers {
		c, d, err := scrape(w)
		if err != nil {
			return s, err
		}
		s.workers, s.scrapes = append(s.workers, c), append(s.scrapes, ms(d))
	}
	return s, nil
}

// warmUp runs every client's opening job concurrently: it primes the
// first chain and makes the daemons generate programs before the first
// measured op. Warm-up jobs are checked and counted like any op.
func (r *run) warmUp(ctx context.Context, f *fleet, clients []*client) {
	results := make([]jobResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		c.next, c.seen = 0, make(map[string]bool)
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			results[i] = c.run(ctx, f, r.golden.serve)
		}(i, c)
	}
	wg.Wait()
	for _, res := range results {
		r.attempted++
		if res.err != nil {
			r.failed++
			r.fail("warm-up: %v", res.err)
		}
	}
}

// phase is the account of one closed-loop window.
type phase struct {
	jobs   []jobResult
	wall   time.Duration
	before snapshot
	after  snapshot
}

// closedLoop runs every client until the window is spent and at least
// atLeast jobs have completed; each client finishes its job in flight.
// Failed ops are counted on r.
func (r *run) closedLoop(ctx context.Context, f *fleet, clients []*client, window time.Duration, atLeast int, tr *tracer) (*phase, error) {
	before, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	ph := &phase{before: before}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var completed atomic.Int64
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for (time.Since(start) < window || completed.Load() < int64(atLeast)) && ctx.Err() == nil {
				res := c.run(ctx, f, r.golden.serve)
				if ctx.Err() != nil {
					return
				}
				traceJob(tr, &res)
				completed.Add(1)
				mu.Lock()
				ph.jobs = append(ph.jobs, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ph.after, err = f.snapshot(); err != nil {
		return nil, err
	}
	for _, res := range ph.jobs {
		r.attempted++
		if res.err != nil {
			r.failed++
			r.fail("%v", res.err)
		}
		if res.refused {
			r.fail("a submit was refused with HTTP 429")
		}
	}
	return ph, nil
}

// traceJob records a completed job's span and its four children: submit,
// first event, terminal event, manifest fetch and verify.
func traceJob(tr *tracer, res *jobResult) {
	if tr == nil || res.err != nil {
		return
	}
	id := tr.add("job", 0, res.start, res.done, "")
	tr.add("job.submit", id, res.start, res.submitted, "")
	tr.add("job.first_event", id, res.submitted, res.firstEvent, "")
	tr.add("job.terminal_event", id, res.firstEvent, res.terminal, "")
	tr.add("job.manifest_verify", id, res.terminal, res.done, "")
}

// runServe drives serve-node (cluster false) or serve-cluster.
func runServe(r *run, cluster bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	clients := make([]*client, serveClients)
	for i := range clients {
		var perm []string
		for _, p := range permutedProfiles(r.seed, uint64(1+i)) {
			perm = append(perm, p.Name)
		}
		clients[i] = &client{id: i, perm: perm, http: &http.Client{}}
	}

	// Cold set-ups: launch until the first op can be sent — daemons
	// healthy, fleet registered, warm-up done. The last fleet stays up
	// for the measurement.
	var setups []float64
	var f *fleet
	for i := 0; i < serveSetupTrials; i++ {
		t0 := time.Now()
		var err error
		f, err = r.startFleet(filepath.Join(r.workDir, fmt.Sprintf("trial%d", i)), cluster)
		if err != nil {
			return err
		}
		r.warmUp(ctx, f, clients)
		t1 := time.Now()
		r.tr.add("setup.fleet", 0, t0, t1, fmt.Sprintf("trial %d", i))
		setups = append(setups, t1.Sub(t0).Seconds())
		if i < serveSetupTrials-1 {
			f.stop()
		}
	}
	defer f.stop()
	r.set("setup_s", median(setups))

	if !r.traced {
		ph, err := r.closedLoop(ctx, f, clients, r.seconds, minJobs, nil)
		if err != nil {
			return err
		}
		r.serveEndToEnd(ph)
		r.serveChecks(f, ph, cluster)
		r.set("rss_mb", fleetRSSMB(f))
		return nil
	}

	t0 := time.Now()
	for _, p := range workload.Profiles() {
		p.Generate()
	}
	r.set("workload.generate_ms", ms(time.Since(t0)))
	var phases []*phase
	for _, traced := range tracedOrder {
		var tr *tracer
		if traced {
			tr = r.tr
		}
		ph, err := r.closedLoop(ctx, f, clients, r.seconds/time.Duration(len(tracedOrder)), 0, tr)
		if err != nil {
			return err
		}
		r.serveChecks(f, ph, cluster)
		phases = append(phases, ph)
	}
	// tracedOrder is untraced, traced, traced, untraced: the traced
	// quarters are contiguous, so their counter deltas merge.
	ref := &phase{jobs: append(phases[0].jobs, phases[3].jobs...)}
	ph := &phase{
		jobs:   append(phases[1].jobs, phases[2].jobs...),
		before: phases[1].before,
		after:  phases[2].after,
	}
	r.set("trace.overhead_pct", (share(jobP50(ph), jobP50(ref))-1)*100)
	r.serveLayers(ph, cluster)
	return nil
}

func okJobs(ph *phase) []*jobResult {
	var out []*jobResult
	for i := range ph.jobs {
		if ph.jobs[i].err == nil {
			out = append(out, &ph.jobs[i])
		}
	}
	return out
}

func jobP50(ph *phase) float64 {
	var xs []float64
	for _, j := range okJobs(ph) {
		xs = append(xs, ms(j.total()))
	}
	return median(xs)
}

// serveEndToEnd sets the job latency, throughput and simulated-instruction
// rate of a window.
func (r *run) serveEndToEnd(ph *phase) {
	var lat []float64
	var instr uint64
	jobs := okJobs(ph)
	for _, j := range jobs {
		lat = append(lat, ms(j.total()))
		instr += j.committed
	}
	secs := ph.wall.Seconds()
	r.set("job_ms_p50", median(lat))
	r.set("job_ms_p90", percentile(lat, 0.9))
	r.set("jobs_per_s", float64(len(jobs))/secs)
	r.set("sim_instr_per_s", float64(instr)/secs)
	if len(lat) < minJobs {
		r.fail("only %d jobs completed; job_ms_p90 needs at least %d", len(lat), minJobs)
	}
}

// serveChecks fails the run when the window did not run as designed: the
// result cache must serve exactly the designed hits, no submit may be
// rate limited, no unit may be stolen, and the fleet must keep both
// workers.
func (r *run) serveChecks(f *fleet, ph *phase, cluster bool) {
	var hits, units int
	for _, j := range ph.jobs {
		hits += j.hits
		units += j.units
	}
	d := func(name string) float64 { return ph.after.head[name] - ph.before.head[name] }
	gotHits, lookups := d("atr_result_cache_hits_total"), d("atr_result_cache_hits_total")+d("atr_result_cache_misses_total")
	if int(gotHits) != hits || int(lookups) != units {
		r.fail("result cache served %v hits of %v lookups; the stream designs %d of %d", gotHits, lookups, hits, units)
	}
	if n := d("atr_rate_limited_total"); n > 0 {
		r.fail("%v submits were rate limited", n)
	}
	if !cluster {
		return
	}
	if n := d("atr_cluster_units_stolen_total"); n > 0 {
		r.fail("%v units were stolen", n)
	}
	if fromCache := d("atr_cluster_units_from_cache_total"); int(fromCache) != hits {
		r.fail("coordinator satisfied %v units from cache; the stream designs %d", fromCache, hits)
	}
	if err := waitReady(f.daemons[0], f.url+"/cluster/v1/workers", fleetOf(clusterWorkers)); err != nil {
		r.fail("fewer than %d workers registered: %v", clusterWorkers, err)
	}
}

// serveLayers derives the per-layer metrics of a traced window.
func (r *run) serveLayers(ph *phase, cluster bool) {
	jobs := okJobs(ph)
	var submit, queue, exec, manifest, overhead, dispatch, merge, encode, size []float64
	var committed, cycles, stalls uint64
	var recs []sweep.Record
	for _, j := range jobs {
		submit = append(submit, ms(j.submitted.Sub(j.start)))
		if !j.running.IsZero() {
			queue = append(queue, ms(j.running.Sub(j.firstEvent)))
		}
		ex := j.terminal.Sub(j.firstProgress)
		exec = append(exec, ms(ex))
		manifest = append(manifest, ms(j.done.Sub(j.terminal)))
		overhead = append(overhead, ms(j.total()-ex))
		dispatch = append(dispatch, ms(j.firstProgress.Sub(j.start)))
		merge = append(merge, j.mergeMs)
		encode = append(encode, j.encodeMs)
		size = append(size, float64(j.manifestLen)/1024)
		committed += j.committed
		cycles += j.cycles
		stalls += j.stalls
		recs = append(recs, j.records...)
	}
	r.set("server.submit_ms_p50", median(submit))
	r.set("server.exec_ms_p50", median(exec))
	r.set("server.manifest_ms_p50", median(manifest))
	r.set("server.overhead_ms_p50", median(overhead))
	r.set("sweep.merge_ms", median(merge))
	r.set("obs.manifest_encode_ms", median(encode))
	r.set("obs.manifest_kb", median(size))
	r.set("sweep.journal_append_us", r.journalAppendUs(recs))
	r.set("pipeline.ipc", share(float64(committed), float64(cycles)))
	r.set("pipeline.rename_stalls_per_kinstr", share(float64(stalls)*1000, float64(committed)))

	d := func(name string) float64 { return ph.after.head[name] - ph.before.head[name] }
	hits := d("atr_result_cache_hits_total")
	r.set("server.cache_hit_share", share(hits, hits+d("atr_result_cache_misses_total")))
	r.set("server.rate_limited", d("atr_rate_limited_total"))
	r.set("telemetry.scrape_ms", median(append(ph.before.scrapes, ph.after.scrapes...)))
	if !cluster {
		r.set("server.queue_wait_ms_p50", median(queue))
		return
	}
	var units int
	for _, j := range jobs {
		units += j.units
	}
	r.set("cluster.dispatch_ms_p50", median(dispatch))
	r.set("cluster.from_cache_share", share(d("atr_cluster_units_from_cache_total"), float64(units)))
	r.set("cluster.stolen_units", d("atr_cluster_units_stolen_total"))
	var polls, executed, lo, hi float64
	for i := range ph.after.workers {
		p := ph.after.workers[i]["atr_worker_polls_total"] - ph.before.workers[i]["atr_worker_polls_total"]
		e := ph.after.workers[i]["atr_worker_units_executed_total"] - ph.before.workers[i]["atr_worker_units_executed_total"]
		polls += p
		executed += e
		if i == 0 || e < lo {
			lo = e
		}
		if i == 0 || e > hi {
			hi = e
		}
	}
	r.set("cluster.polls_per_unit", share(polls, executed))
	r.set("cluster.worker_skew", share(hi-lo, executed/float64(len(ph.after.workers))))
}

// fleetRSSMB sums the fleet's peak resident sets (VmHWM), read while the
// daemons are still up.
func fleetRSSMB(f *fleet) float64 {
	var total float64
	for _, d := range f.daemons {
		v, _ := vmHWM(d.cmd.Process.Pid)
		total += v
	}
	return total
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
