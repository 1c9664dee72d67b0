package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atr/internal/sweep"
)

// clusterOptions returns options for atrd -coordinator: no in-process
// worker, so joined (or hand-driven) workers execute every unit.
func clusterOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		StateDir:         t.TempDir(),
		DefaultInstr:     2000,
		SimWorkers:       -1,
		Rate:             -1,
		HeartbeatTimeout: 400 * time.Millisecond,
		LeaseTimeout:     500 * time.Millisecond,
	}
}

func newTestCoordinator(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	hs := httptest.NewServer(c)
	t.Cleanup(func() { _ = c.Shutdown(context.Background()); hs.Close() })
	return c, hs
}

// startWorker runs a worker daemon of the given slots against the
// coordinator URL and returns its kill switch.
func startWorker(t *testing.T, url, name string, slots int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerOptions{Coordinator: url, Name: name, SimWorkers: slots})
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

func postJSON(t *testing.T, url string, in, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", url, body, err)
		}
	}
	return resp
}

func submitSpec(t *testing.T, base string, spec JobSpec) Status {
	t.Helper()
	var st Status
	resp := postJSON(t, base+"/v1/jobs", spec, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return st
}

func jobStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

// TestClusterManifestMatchesSingleNode is the subsystem's headline proof:
// a fig10 grid sharded across three worker daemons — one SIGKILLed
// mid-flight, its leases stolen back — merges to the byte-identical
// manifest a single-node engine run produces.
func TestClusterManifestMatchesSingleNode(t *testing.T) {
	opts := clusterOptions(t)
	c, hs := newTestCoordinator(t, opts)

	startWorker(t, hs.URL, "w1", 2)
	startWorker(t, hs.URL, "w2", 2)
	killW3 := startWorker(t, hs.URL, "w3", 2)

	g := sweep.Fig10Grid(300)
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "fig10", Instr: 300})
	if st.Total != len(g.Units()) {
		t.Fatalf("job total %d, want %d", st.Total, len(g.Units()))
	}

	// Kill one worker mid-grid: wait for real progress first so w3 has
	// executed and holds leases, then cut its context. In-flight uploads
	// die with it; the coordinator evicts it on heartbeat timeout and the
	// survivors steal its units back.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := jobStatus(t, hs.URL, st.ID).Progress
		if p.Done+p.Failed >= 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", p)
		}
		time.Sleep(5 * time.Millisecond)
	}
	killW3()

	final := waitState(t, c, st.ID, StateDone)
	if final.Progress.Done != len(g.Units()) {
		t.Fatalf("done %d, want %d", final.Progress.Done, len(g.Units()))
	}
	got := fetchManifest(t, hs.URL, st.ID)
	want := offlineManifest(t, g, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster manifest differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestClusterInjectPanicParity proves failure records cross the cluster
// unchanged: a poisoned unit executed on a worker daemon is recorded —
// attempts, error text, empty result — exactly as the engine records it,
// so even a failing grid merges byte-identically.
func TestClusterInjectPanicParity(t *testing.T) {
	opts := clusterOptions(t)
	c, hs := newTestCoordinator(t, opts)
	startWorker(t, hs.URL, "w1", 2)

	g := sweep.MicroGrid(500)
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 500, InjectPanic: 5})
	final := waitState(t, c, st.ID, StateDone)
	if final.Progress.Failed != 1 {
		t.Fatalf("failed %d, want exactly the poisoned unit", final.Progress.Failed)
	}
	got := fetchManifest(t, hs.URL, st.ID)
	want := offlineManifest(t, g, 5)
	if !bytes.Equal(got, want) {
		t.Fatal("cluster manifest with injected fault differs from single-node run")
	}
	var m *sweep.Manifest
	var err error
	if m, err = sweep.DecodeManifest(bytes.NewReader(got)); err != nil {
		t.Fatalf("served manifest invalid: %v", err)
	}
	if !strings.Contains(m.Runs[4].Err, "injected fault") {
		t.Fatalf("run 5 error = %q, want injected fault", m.Runs[4].Err)
	}
}

// TestCoordinatorRestartRecovers kills the whole control plane mid-grid
// and proves the persistent job store carries it: a new coordinator on
// the same state dir re-adopts journaled records (never re-executing
// them), workers re-register on their own, and the finished manifest is
// byte-identical to a single-node run.
func TestCoordinatorRestartRecovers(t *testing.T) {
	opts := clusterOptions(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + lis.Addr().String()

	coordA, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	srvA := &http.Server{Handler: coordA}
	go srvA.Serve(lis)

	// Submit with no live workers, then hand-execute a prefix of the grid
	// through the wire protocol so the journal holds real cluster records
	// at kill time.
	g := sweep.MicroGrid(500)
	st := submitSpec(t, base, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})
	fake := newFakeWorker(t, base, "fake")
	asn := fake.poll(t, 6)
	executed := 0
	for _, a := range asn {
		for _, rec := range fake.execute(t, a) {
			fake.upload(t, a.Job, rec)
			executed++
		}
	}
	if executed == 0 {
		t.Fatal("fake worker leased no units")
	}

	// Full-fleet kill: HTTP server down, coordinator stopped.
	srvA.Close()
	_ = coordA.Shutdown(context.Background())

	coordB, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coordB.Shutdown(context.Background())
	if got := coordB.tm.jobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs recovered = %d, want 1", got)
	}

	// Rebind the same address so workers' configured coordinator URL
	// stays valid across the restart.
	var lis2 net.Listener
	for i := 0; i < 100; i++ {
		lis2, err = net.Listen("tcp", lis.Addr().String())
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	srvB := &http.Server{Handler: coordB}
	go srvB.Serve(lis2)
	defer srvB.Close()

	// Recovered, the job is queued again until a worker leases a unit.
	stB := jobStatus(t, base, st.ID)
	if stB.State != StateQueued {
		t.Fatalf("recovered job state %q, want queued", stB.State)
	}
	if stB.Progress.Resumed != executed || stB.Progress.Done != executed {
		t.Fatalf("recovered progress %+v, want %d resumed and done", stB.Progress, executed)
	}

	startWorker(t, base, "w1", 2)
	startWorker(t, base, "w2", 2)
	waitState(t, coordB, st.ID, StateDone)

	got := fetchManifest(t, base, st.ID)
	if want := offlineManifest(t, g, 0); !bytes.Equal(got, want) {
		t.Fatal("post-restart cluster manifest differs from single-node run")
	}
}

// TestJoinedWorkersShareGrid proves dispatch is work-conserving: two
// 1-slot workers each lease the oldest pending unit whenever their slot
// frees, so each executes at least a quarter of fig10. The names w1 and w2
// hash badly under FNV-1a: placement by a hash ring of those names would
// hand w1 176 of the 184 units.
func TestJoinedWorkersShareGrid(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout = time.Minute // an eviction would reset a worker's count
	c, hs := newTestCoordinator(t, opts)
	startWorker(t, hs.URL, "w1", 1)
	startWorker(t, hs.URL, "w2", 1)
	waitFleet(t, c, 2)

	total := len(sweep.Fig10Grid(1000).Units())
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "fig10", Instr: 1000})
	waitState(t, c, st.ID, StateDone)
	for _, w := range c.Fleet().Workers {
		if w.Done < uint64(total/4) {
			t.Fatalf("worker %s executed %d of %d units, want at least a quarter", w.ID, w.Done, total)
		}
	}
}

// TestParkedPollWakesOnSubmit: a poll to an idle coordinator gives no
// answer until a submission makes a unit leasable, and then answers at
// once with the oldest one.
func TestParkedPollWakesOnSubmit(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout = time.Minute
	c, hs := newTestCoordinator(t, opts)
	newFakeWorker(t, hs.URL, "idle")

	answer := parkPoll(t, c, hs.URL, "idle", 1)
	select {
	case res := <-answer:
		t.Fatalf("poll to an idle coordinator answered %+v", res)
	default:
	}
	t0 := time.Now()
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})
	res := <-answer
	if waited := time.Since(t0); waited >= pollPark {
		t.Fatalf("parked poll answered after %v: the bound woke it, not the submit", waited)
	}
	if res.err != nil || res.code != http.StatusOK || len(res.asn) != 1 ||
		res.asn[0].Job != st.ID || len(res.asn[0].Seqs) != 1 || res.asn[0].Seqs[0] != 0 {
		t.Fatalf("woken poll answered %+v, want job %s unit 0", res, st.ID)
	}
}

// TestDrainEndsStreamsAndParkedPolls drains in atrd's order, coordinator
// then HTTP server, with a watch stream open on a running job and a poll
// parked. Both end promptly, well inside the poll bound: the stream with
// the interrupted status, the poll with 503 and no lease.
func TestDrainEndsStreamsAndParkedPolls(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout, opts.LeaseTimeout = time.Minute, time.Minute
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: c}
	go srv.Serve(lis)
	t.Cleanup(func() { _ = c.Shutdown(context.Background()); srv.Close() })
	base := "http://" + lis.Addr().String()

	st := submitSpec(t, base, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})
	leased := 0
	for _, a := range newFakeWorker(t, base, "holder").poll(t, pollMax) {
		leased += len(a.Seqs)
	}
	if leased != st.Total {
		t.Fatalf("holder leased %d of %d units", leased, st.Total)
	}

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var first Event
	if err := dec.Decode(&first); err != nil || first.State != StateRunning {
		t.Fatalf("first event %+v (%v), want status running", first, err)
	}
	last := make(chan Event, 1)
	go func() {
		ev := first
		for {
			var next Event
			if dec.Decode(&next) != nil {
				break
			}
			ev = next
		}
		last <- ev
	}()
	newFakeWorker(t, base, "idle")
	answer := parkPoll(t, c, base, "idle", 1)

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), pollPark)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("http drain: %v", err)
	}
	if took := time.Since(t0); took > pollPark/4 {
		t.Fatalf("drain took %v", took)
	}
	if res := <-answer; res.code != http.StatusServiceUnavailable || len(res.asn) != 0 {
		t.Fatalf("parked poll answered %+v, want 503 and no lease", res)
	}
	if ev := <-last; ev.Type != "status" || ev.State != StateInterrupted {
		t.Fatalf("stream ended on %+v, want status interrupted", ev)
	}
}

// TestWorkerLeasesNoMoreThanSlots: a 1-slot worker leases one unit at a
// time, so no lease expires while its unit waits behind the others in the
// grid — nothing is stolen or uploaded twice, and the fleet never shows
// more leases than slots. The lease outlasts one unit by a margin but
// not the grid's 24 in a row; the race detector slows a unit several-fold,
// so the lease is sized from a timed one.
func TestWorkerLeasesNoMoreThanSlots(t *testing.T) {
	opts := clusterOptions(t)
	g := sweep.MicroGrid(20_000)
	t0 := time.Now()
	if _, err := unitRunner(new(sweep.Programs), g.Instr, 0)(context.Background(), g.Units()[0]); err != nil {
		t.Fatal(err)
	}
	opts.LeaseTimeout = max(opts.LeaseTimeout, 4*time.Since(t0))
	c, hs := newTestCoordinator(t, opts)
	startWorker(t, hs.URL, "solo", 1)
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: g.Instr})
	deadline := time.Now().Add(5 * time.Minute)
	for jobStatus(t, hs.URL, st.ID).State != StateDone {
		for _, w := range c.Fleet().Workers {
			if w.Leased > w.SimWorkers {
				t.Fatalf("worker %s holds %d leases with %d slots", w.ID, w.Leased, w.SimWorkers)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	if n := c.tm.unitsStolen.Value(); n != 0 {
		t.Fatalf("%d units stolen, want 0", n)
	}
	if n := c.tm.dupUploads.Value(); n != 0 {
		t.Fatalf("%d duplicate uploads, want 0", n)
	}
}

// TestWorkerReregistersOnce: when the coordinator forgets a worker, as a
// restart or an eviction does, each of its slots gets 404, but the worker
// registers again only once. Each registration reclaims every lease held
// under the name, so one per slot would steal units from sibling slots.
func TestWorkerReregistersOnce(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout, opts.LeaseTimeout = time.Minute, time.Minute
	c, hs := newTestCoordinator(t, opts)
	w := NewWorker(WorkerOptions{Coordinator: hs.URL, Name: "quad", SimWorkers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	deadline := time.Now().Add(10 * time.Second)
	for w.wm.polls.Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("slots never polled")
		}
		time.Sleep(time.Millisecond)
	}

	c.mu.Lock()
	delete(c.workers, "quad")
	c.wakeIdle() // the parked polls answer 404
	c.mu.Unlock()
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 2000})
	waitState(t, c, st.ID, StateDone)
	if n := c.tm.workersRegistered.Value(); n != 2 {
		t.Fatalf("%d registrations, want the first and one more", n)
	}
	if n := c.tm.unitsStolen.Value(); n != 0 {
		t.Fatalf("%d units stolen, want 0", n)
	}
}

func waitFleet(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Fleet().Workers) < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet of %d never registered", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// pollResult is one /cluster/v1/poll answer.
type pollResult struct {
	code int
	asn  []Assignment
	err  error
}

// parkPoll sends a poll for the registered worker name and returns once
// the coordinator has taken it in — recorded its beat, and parked it if
// nothing was leasable. The answer arrives on the returned channel.
func parkPoll(t *testing.T, c *Coordinator, base, name string, max int) <-chan pollResult {
	t.Helper()
	beat := func() time.Time {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.workers[name].lastBeat
	}
	before := beat()
	out := make(chan pollResult, 1)
	go func() {
		b, _ := json.Marshal(pollRequest{Worker: name, Max: max})
		resp, err := http.Post(base+"/cluster/v1/poll", "application/json", bytes.NewReader(b))
		if err != nil {
			out <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var pr pollResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		out <- pollResult{code: resp.StatusCode, asn: pr.Assignments, err: err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for beat().Equal(before) {
		if time.Now().After(deadline) {
			t.Fatal("poll never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

// --- fake worker: drives the wire protocol by hand for deterministic
// churn tests ---

type fakeWorker struct {
	base string
	name string
}

func newFakeWorker(t *testing.T, base, name string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{base: base, name: name}
	var resp registerResponse
	r := postJSON(t, base+"/cluster/v1/register", registerRequest{Name: name}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fake register: status %d", r.StatusCode)
	}
	return f
}

func (f *fakeWorker) heartbeat(t *testing.T) *http.Response {
	t.Helper()
	return postJSON(t, f.base+"/cluster/v1/heartbeat", heartbeatRequest{Worker: f.name}, nil)
}

func (f *fakeWorker) poll(t *testing.T, max int) []Assignment {
	t.Helper()
	var resp pollResponse
	r := postJSON(t, f.base+"/cluster/v1/poll", pollRequest{Worker: f.name, Max: max}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fake poll: status %d", r.StatusCode)
	}
	return resp.Assignments
}

// execute runs the assignment's units locally through the engine's own
// per-unit path — the same code a real worker calls.
func (f *fakeWorker) execute(t *testing.T, a Assignment) []sweep.Record {
	t.Helper()
	g, err := a.Spec.ResolveGrid(a.Instr)
	if err != nil {
		t.Fatalf("fake resolve: %v", err)
	}
	units := g.Units()
	fn := sweep.Sim(g.Instr)
	var recs []sweep.Record
	for _, seq := range a.Seqs {
		recs = append(recs, sweep.ExecuteUnit(context.Background(), units[seq], fn, 0, 0, nil))
	}
	return recs
}

func (f *fakeWorker) upload(t *testing.T, job string, recs ...sweep.Record) uploadResponse {
	t.Helper()
	var resp uploadResponse
	r := postJSON(t, f.base+"/cluster/v1/results", uploadRequest{Worker: f.name, Job: job, Records: recs}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fake upload: status %d", r.StatusCode)
	}
	return resp
}
