package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"atr/internal/obs"
	"atr/internal/sweep"
)

// testOptions returns options for a plain atrd: a coordinator with a
// two-slot in-process worker and rate limiting off (individual tests opt
// back in).
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		StateDir:     t.TempDir(),
		DefaultInstr: 1000,
		SimWorkers:   2,
		QueueDepth:   16,
		Rate:         -1,
	}
}

func newTestServer(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hs := httptest.NewServer(c)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, hs
}

// setBeforeRun swaps the local-slot test hook under the lock the slots
// read it with.
func setBeforeRun(c *Coordinator, fn func(jobID string)) {
	c.mu.Lock()
	c.beforeRun = fn
	c.mu.Unlock()
}

// offlineManifest renders the reference bytes for g exactly as atrsweep
// -out would: an engine run plus Manifest.Encode.
func offlineManifest(t *testing.T, g sweep.Grid, injectPanic int) []byte {
	t.Helper()
	eng := sweep.New(sweep.Options{Workers: 4, InjectPanic: injectPanic})
	m, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("offline sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode offline manifest: %v", err)
	}
	return buf.Bytes()
}

// submitJob posts a spec and returns the accepted job ID.
func submitJob(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	id, code, body := trySubmit(t, base, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	return id
}

func trySubmit(t *testing.T, base string, spec JobSpec, clientID string) (id string, code int, body string) {
	t.Helper()
	b, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-ATR-Client", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st Status
	_ = json.Unmarshal(raw, &st)
	return st.ID, resp.StatusCode, string(raw)
}

// waitState blocks until the job reaches want, failing if it reaches a
// different terminal state first or the wait times out.
func waitState(t *testing.T, c *Coordinator, id, want string) Status {
	t.Helper()
	timeout := time.After(120 * time.Second)
	for {
		c.mu.Lock()
		j, ok := c.jobs[id]
		var st Status
		var changed <-chan struct{}
		if ok {
			st, changed = j.status(), j.changed
		}
		c.mu.Unlock()
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s state = %s (err %q), want %s", id, st.State, st.Error, want)
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("job %s stuck in %s (progress %+v), want %s", id, st.State, st.Progress, want)
		}
	}
}

func fetchManifest(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/manifest")
	if err != nil {
		t.Fatalf("fetch manifest: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: status %d, body %s", resp.StatusCode, b)
	}
	return b
}

func fetchPerf(t *testing.T, base, id string) obs.PerfManifest {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/perf")
	if err != nil {
		t.Fatalf("fetch perf: %v", err)
	}
	defer resp.Body.Close()
	pm, err := obs.DecodePerfManifest(resp.Body)
	if err != nil {
		t.Fatalf("decode perf manifest: %v", err)
	}
	return pm
}

// TestServedManifestMatchesOffline is the service's correctness contract:
// the bytes served for a grid equal the bytes offline atrsweep produces
// for the same grid.
func TestServedManifestMatchesOffline(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	spec := JobSpec{Kind: "grid", Grid: "micro", Instr: 1200}
	id := submitJob(t, hs.URL, spec)
	waitState(t, c, id, StateDone)

	served := fetchManifest(t, hs.URL, id)
	offline := offlineManifest(t, sweep.MicroGrid(1200), 0)
	if !bytes.Equal(served, offline) {
		t.Fatalf("served manifest (%d bytes) differs from offline (%d bytes)", len(served), len(offline))
	}

	// The perf artifact carries provenance that must stay out of the
	// result manifest.
	pm := fetchPerf(t, hs.URL, id)
	if pm.Sweep.JobID != id {
		t.Errorf("perf JobID = %q, want %q", pm.Sweep.JobID, id)
	}
	if pm.Sweep.Host == "" || pm.Sweep.StartedAt == "" || pm.Sweep.FinishedAt == "" {
		t.Errorf("perf provenance incomplete: %+v", pm.Sweep)
	}
	if pm.Sweep.Done != 24 || pm.Sweep.Total != 24 {
		t.Errorf("perf counts %d/%d, want 24/24", pm.Sweep.Done, pm.Sweep.Total)
	}
	if bytes.Contains(served, []byte(pm.Sweep.StartedAt)) {
		t.Errorf("wall-clock provenance leaked into the deterministic manifest")
	}
}

// TestSingleRunJob exercises the Kind "run" path end to end.
func TestSingleRunJob(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	id := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Scheme: "atomic", Regs: 96, Instr: 1500})
	waitState(t, c, id, StateDone)
	m, err := sweep.DecodeManifest(bytes.NewReader(fetchManifest(t, hs.URL, id)))
	if err != nil {
		t.Fatalf("decode served manifest: %v", err)
	}
	if len(m.Runs) != 1 || m.Runs[0].Bench != "gcc" || m.Runs[0].Scheme != "atomic" || m.Runs[0].PhysRegs != 96 {
		t.Fatalf("unexpected run: %+v", m.Runs[0])
	}
	if m.Runs[0].Result.Committed == 0 {
		t.Fatalf("run committed nothing")
	}
}

// TestLocalWorkerNoClusterTraffic pins what plain atrd is: a coordinator
// whose only worker runs in-process. A grid completes with not one request
// on the worker API, and the fleet view lists exactly that worker.
func TestLocalWorkerNoClusterTraffic(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	id := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 900})
	waitState(t, c, id, StateDone)
	if !bytes.Equal(fetchManifest(t, hs.URL, id), offlineManifest(t, sweep.MicroGrid(900), 0)) {
		t.Fatal("manifest differs from offline")
	}

	fams := scrapeText(t, hs.URL)
	for _, s := range fams["atr_http_requests_total"].Samples {
		switch s.Labels["route"] {
		case "register", "heartbeat", "poll", "results":
			if s.Value != 0 {
				t.Errorf("%v worker-API requests on route %s, want 0", s.Value, s.Labels["route"])
			}
		}
	}

	resp, err := http.Get(hs.URL + "/cluster/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet obs.ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Workers) != 1 || fleet.Workers[0].ID != localWorker || fleet.Workers[0].SimWorkers != 2 {
		t.Fatalf("fleet = %+v, want exactly the two-slot in-process worker", fleet.Workers)
	}
	if w := fleet.Workers[0]; w.Done != 24 || w.Leased != 0 {
		t.Errorf("in-process worker done=%d leased=%d, want 24/0", w.Done, w.Leased)
	}
}

// TestLocalLeaseNeverExpires holds an in-process unit far past the lease
// and heartbeat timeouts: the in-process worker neither heartbeats nor
// loses leases, so the unit is neither stolen nor executed twice.
func TestLocalLeaseNeverExpires(t *testing.T) {
	opts := testOptions(t)
	opts.SimWorkers = 1
	opts.LeaseTimeout = 40 * time.Millisecond
	opts.HeartbeatTimeout = 40 * time.Millisecond
	c, hs := newTestServer(t, opts)
	setBeforeRun(c, func(string) { time.Sleep(10 * opts.LeaseTimeout) })

	id := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "mcf", Instr: 800})
	waitState(t, c, id, StateDone)
	if got := c.tm.unitsStolen.Value(); got != 0 {
		t.Errorf("units stolen = %d, want 0", got)
	}
	if got := c.tm.workersEvicted.Value(); got != 0 {
		t.Errorf("workers evicted = %d, want 0", got)
	}
	if got, dup := c.tm.runsExecuted.Value(), c.tm.dupUploads.Value(); got != 1 || dup != 0 {
		t.Errorf("runs executed = %d, duplicates = %d, want 1/0", got, dup)
	}
	if n := len(c.Fleet().Workers); n != 1 {
		t.Errorf("fleet size %d, want the in-process worker", n)
	}
}

// TestKillRestartResumeParity is the acceptance bar for graceful shutdown:
// a daemon stopped mid-grid leaves a journal; a new daemon over the same
// state dir resumes the job and serves a manifest byte-identical to an
// uninterrupted offline sweep of the same grid.
func TestKillRestartResumeParity(t *testing.T) {
	opts := testOptions(t)
	c1, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hs1 := httptest.NewServer(c1)

	const instr = 400
	id := submitJob(t, hs1.URL, JobSpec{Kind: "grid", Grid: "fig10", Instr: instr})

	// Let the grid get genuinely mid-flight, then drain the daemon.
	deadline := time.Now().Add(60 * time.Second)
	for {
		c1.mu.Lock()
		st := c1.jobs[id].status()
		c1.mu.Unlock()
		if st.Progress.Done >= 10 {
			break
		}
		if terminal(st.State) {
			t.Fatalf("job finished before shutdown could interrupt it; state %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitState(t, c1, id, StateInterrupted)

	// The journal on disk is a valid, partial account of the sweep.
	jf, err := os.Open(filepath.Join(opts.StateDir, "jobs", id, "journal.jsonl"))
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	journal, err := sweep.LoadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	if len(journal.Records) == 0 || len(journal.Records) >= journal.Total {
		t.Fatalf("journal has %d/%d records, want a strict mid-grid prefix", len(journal.Records), journal.Total)
	}

	// Restart: same state dir, fresh daemon. The job must resume from the
	// journal and finish.
	c2, hs2 := newTestServer(t, opts)
	if got := c2.Metrics().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", got)
	}
	waitState(t, c2, id, StateDone)

	served := fetchManifest(t, hs2.URL, id)
	if !bytes.Equal(served, offlineManifest(t, sweep.Fig10Grid(instr), 0)) {
		t.Fatalf("resumed manifest differs from offline (served %d bytes)", len(served))
	}

	// And the resume actually reused the journaled prefix.
	if pm := fetchPerf(t, hs2.URL, id); pm.Sweep.Resumed < len(journal.Records) {
		t.Errorf("resumed %d runs, want >= %d (the journaled prefix)", pm.Sweep.Resumed, len(journal.Records))
	}
}

// TestConcurrentJobsIsolationAndCache is the serving-scale acceptance
// check: eight jobs (mixed single-run and grid) admitted and live at once
// while every in-process slot holds a unit, each producing its correct
// isolated manifest; duplicate submissions served from the
// content-addressed cache without re-simulating.
func TestConcurrentJobsIsolationAndCache(t *testing.T) {
	opts := testOptions(t)
	opts.SimWorkers = 8
	opts.QueueDepth = 32
	c, hs := newTestServer(t, opts)

	const fleet = 8
	var mu sync.Mutex
	held := 0
	allIn := make(chan struct{})
	release := make(chan struct{})
	setBeforeRun(c, func(string) {
		mu.Lock()
		if held++; held == fleet {
			close(allIn)
		}
		mu.Unlock()
		<-release
	})

	benches := []string{"gcc", "mcf", "leela", "xz"}
	var ids []string
	var specs []JobSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{Kind: "run", Bench: benches[i], Scheme: "combined", Instr: 1100})
	}
	for i := 0; i < 4; i++ {
		// Distinct budgets keep the four grids cache-disjoint.
		specs = append(specs, JobSpec{Kind: "grid", Grid: "micro", Instr: uint64(700 + 100*i)})
	}
	for _, spec := range specs {
		ids = append(ids, submitJob(t, hs.URL, spec))
	}

	select {
	case <-allIn:
	case <-time.After(60 * time.Second):
		t.Fatalf("in-process slots never all held a unit")
	}
	if m := c.Metrics(); m.JobsQueued+m.JobsRunning != fleet || m.JobsRunning < 5 {
		t.Fatalf("queued %d + running %d, want %d live with >= 5 running", m.JobsQueued, m.JobsRunning, fleet)
	}
	setBeforeRun(c, nil)
	close(release)
	for _, id := range ids {
		waitState(t, c, id, StateDone)
	}

	// Per-job isolation: every manifest matches its own offline
	// reference, bytes and all.
	for i, id := range ids {
		g, err := specs[i].ResolveGrid(opts.DefaultInstr)
		if err != nil {
			t.Fatalf("grid: %v", err)
		}
		if !bytes.Equal(fetchManifest(t, hs.URL, id), offlineManifest(t, g, 0)) {
			t.Errorf("job %s (spec %d) manifest differs from offline reference", id, i)
		}
	}

	// Duplicate submission: every unit is already cached, so the job
	// completes without executing a single new simulation.
	before := c.Metrics()
	dup := submitJob(t, hs.URL, specs[4])
	waitState(t, c, dup, StateDone)
	after := c.Metrics()
	if after.RunsExecuted != before.RunsExecuted {
		t.Errorf("duplicate submission executed %d new runs, want 0", after.RunsExecuted-before.RunsExecuted)
	}
	g4, _ := specs[4].ResolveGrid(opts.DefaultInstr)
	if got, want := after.RunsFromCache-before.RunsFromCache, len(g4.Units()); got != want {
		t.Errorf("duplicate served %d runs from cache, want %d", got, want)
	}
	if after.CacheHits <= before.CacheHits {
		t.Errorf("cache hits did not increase on duplicate submission")
	}
	if !bytes.Equal(fetchManifest(t, hs.URL, dup), fetchManifest(t, hs.URL, ids[4])) {
		t.Errorf("cache-served manifest differs from the executed one")
	}
}

// TestClientDisconnectCancelsEphemeralJob pins the cancellation path: an
// ephemeral job's watcher disconnecting mid-stream cancels the job, and
// the journal left behind resumes to the uninterrupted manifest.
func TestClientDisconnectCancelsEphemeralJob(t *testing.T) {
	opts := testOptions(t)
	c, hs := newTestServer(t, opts)

	spec := JobSpec{
		Kind:      "grid",
		Instr:     1500,
		Name:      "disconnect",
		Profiles:  []string{"perlbench", "gcc", "mcf", "omnetpp", "xalancbmk", "x264", "deepsjeng", "leela"},
		PhysRegs:  []int{64, 96, 128},
		Schemes:   []string{"baseline", "nonspec-er", "atomic", "combined"},
		Ephemeral: true,
	}
	b, _ := json.Marshal(spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/jobs?watch=1", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch submit: status %d body %s", resp.StatusCode, body)
	}

	// Read the stream until a few runs have completed, then vanish.
	var id string
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if ev.Job != "" {
			id = ev.Job
		}
		if ev.Type == "status" && terminal(ev.State) {
			t.Fatalf("job reached %s before the disconnect", ev.State)
		}
		if ev.Type == "progress" && ev.Progress.Done >= 3 {
			break
		}
	}
	cancel() // client disconnect
	waitState(t, c, id, StateCancelled)

	// The journal is a resumable partial account: an offline engine
	// resuming from it reproduces the uninterrupted manifest.
	jf, err := os.Open(filepath.Join(opts.StateDir, "jobs", id, "journal.jsonl"))
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	journal, err := sweep.LoadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatalf("journal of cancelled job unreadable: %v", err)
	}
	if len(journal.Records) < 3 {
		t.Fatalf("journal has %d records, want >= 3", len(journal.Records))
	}
	g, err := spec.ResolveGrid(opts.DefaultInstr)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	eng := sweep.New(sweep.Options{Workers: 4, Resume: journal})
	m, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("resume cancelled journal: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), offlineManifest(t, g, 0)) {
		t.Errorf("journal-resumed manifest differs from uninterrupted offline run")
	}
	if eng.Info().Resumed < len(journal.Records) {
		t.Errorf("resume re-executed journaled runs: resumed %d < %d", eng.Info().Resumed, len(journal.Records))
	}
}

// TestQueueBackpressure pins the bounded-queue contract: with the one
// in-process slot held and the queue full, the next submission is refused
// with 429 and a Retry-After header, and succeeds once capacity frees up.
// A job counts as queued until its first unit is leased.
func TestQueueBackpressure(t *testing.T) {
	opts := testOptions(t)
	opts.SimWorkers = 1
	opts.QueueDepth = 1
	c, hs := newTestServer(t, opts)

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	setBeforeRun(c, func(string) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})

	first := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 600})
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never started")
	}
	second := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 700}) // fills the queue

	b, _ := json.Marshal(JobSpec{Kind: "grid", Grid: "micro", Instr: 800})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Errorf("unexpected 429 body: %s", body)
	}

	setBeforeRun(c, nil)
	close(release)
	waitState(t, c, first, StateDone)
	waitState(t, c, second, StateDone)
	third := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 800})
	waitState(t, c, third, StateDone)
	if got := c.Metrics().JobsDone; got != 3 {
		t.Errorf("JobsDone = %d, want 3", got)
	}
}

// TestRateLimit429 pins per-client token-bucket limiting: a client past
// its burst gets 429 + Retry-After while a different client is unaffected.
func TestRateLimit429(t *testing.T) {
	opts := testOptions(t)
	opts.Rate = 0.5
	opts.Burst = 1
	c, hs := newTestServer(t, opts)

	id, code, _ := trySubmit(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800}, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	_, code, body := trySubmit(t, hs.URL, JobSpec{Kind: "run", Bench: "mcf", Instr: 800}, "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d body %s, want 429", code, body)
	}
	id2, code, _ := trySubmit(t, hs.URL, JobSpec{Kind: "run", Bench: "mcf", Instr: 800}, "bob")
	if code != http.StatusAccepted {
		t.Fatalf("other client: status %d, want 202", code)
	}
	if got := c.Metrics().RateLimited; got != 1 {
		t.Errorf("RateLimited = %d, want 1", got)
	}
	waitState(t, c, id, StateDone)
	waitState(t, c, id2, StateDone)
}

// badSpecs are the job specs admission must refuse with 400; FuzzJobSpec
// seeds from them too.
var badSpecs = []JobSpec{
	{Kind: "grid", Grid: "nope"},
	{Kind: "run", Bench: "not-a-bench"},
	{Kind: "run", Bench: "gcc", Scheme: "not-a-scheme"},
	{Kind: "grid"}, // custom grid with no profiles
	{Kind: "???"},
	{Kind: "run", Bench: "gcc", Sample: "systematic:1000/200/50/junk"}, // not canonical
	// Resolve to a grid whose every unit fails config.Validate.
	{Kind: "run", Bench: "gcc", Regs: 10},
	{Kind: "run", Bench: "gcc", Regs: -1},
	{Kind: "grid", Profiles: []string{"gcc"}, PhysRegs: []int{-3}},
	hugeGridSpec(),
}

// hugeGridSpec declares 5 profiles × 1,000 register-file sizes × 4
// schemes: 20,000 units from about 4 KB of JSON.
func hugeGridSpec() JobSpec {
	regs := make([]int, 1000)
	for i := range regs {
		regs[i] = 40 + i
	}
	return JobSpec{
		Kind:     "grid",
		Profiles: []string{"gcc", "mcf", "xz", "x264", "nab"},
		PhysRegs: regs,
		Schemes:  []string{"baseline", "nonspec-er", "atomic", "combined"},
	}
}

// TestOversizedGridRefusedCheaply: admission must refuse a spec declaring
// more than maxJobUnits units from its axis lengths, before expanding the
// cross product, so the refusal costs about what decoding the body does.
func TestOversizedGridRefusedCheaply(t *testing.T) {
	body, err := json.Marshal(hugeGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var spec JobSpec
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	g, err := spec.ResolveGrid(1000)
	if err == nil {
		_, err = newJob("j000001", "t", spec, g)
	}
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte spec declaring 20,000 units was admitted", len(body))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing a %d-byte spec allocated %d bytes, want under 1 MiB", len(body), alloc)
	}
}

// TestBadSpecRejected covers admission validation.
func TestBadSpecRejected(t *testing.T) {
	_, hs := newTestServer(t, testOptions(t))
	for i, spec := range badSpecs {
		if _, code, _ := trySubmit(t, hs.URL, spec, ""); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestLimiterRetryAfter unit-tests the bucket arithmetic.
func TestLimiterRetryAfter(t *testing.T) {
	l := NewLimiter(2, 1) // 2 tokens/sec, burst 1
	now := time.Unix(1000, 0)
	ok, _ := l.Allow("c", now)
	if !ok {
		t.Fatal("first request refused")
	}
	ok, retry := l.Allow("c", now)
	if ok {
		t.Fatal("second request allowed with empty bucket")
	}
	if retry != time.Second {
		t.Fatalf("retry = %v, want 1s (0.5s rounded up)", retry)
	}
	ok, _ = l.Allow("c", now.Add(600*time.Millisecond))
	if !ok {
		t.Fatal("request refused after refill")
	}
	if ok, _ := l.Allow("other", now); !ok {
		t.Fatal("independent client refused")
	}
}

// TestSpecGridDeterminism pins that spec→grid resolution is pure: the
// restart path depends on a persisted spec rebuilding identical unit keys.
func TestSpecGridDeterminism(t *testing.T) {
	spec := JobSpec{Kind: "grid", Grid: "fig10", Instr: 777}
	g1, err := spec.ResolveGrid(1000)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := spec.ResolveGrid(2000) // explicit Instr wins over the default
	u1, u2 := g1.Units(), g2.Units()
	if len(u1) == 0 || len(u1) != len(u2) {
		t.Fatalf("unit counts differ: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i].Key != u2[i].Key {
			t.Fatalf("unit %d key differs across resolutions", i)
		}
	}
	if g1.Instr != 777 || g2.Instr != 777 {
		t.Fatalf("explicit instr not honoured: %d/%d", g1.Instr, g2.Instr)
	}
	if _, err := fmt.Sscanf("j000042", "j%d", new(int)); err != nil {
		t.Fatalf("id format: %v", err)
	}
}
