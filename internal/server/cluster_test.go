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

	"atr/internal/pipeline"
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
	t.Cleanup(func() { hs.Close(); _ = c.Shutdown(context.Background()) })
	return c, hs
}

// startWorker runs a worker daemon against the coordinator URL and
// returns its kill switch.
func startWorker(t *testing.T, url, name string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerOptions{
		Coordinator: url, Name: name,
		SimWorkers: 2, PollInterval: 10 * time.Millisecond,
	})
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

	startWorker(t, hs.URL, "w1")
	startWorker(t, hs.URL, "w2")
	killW3 := startWorker(t, hs.URL, "w3")

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
	startWorker(t, hs.URL, "w1")

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

	startWorker(t, base, "w1")
	startWorker(t, base, "w2")
	waitState(t, coordB, st.ID, StateDone)

	got := fetchManifest(t, base, st.ID)
	if want := offlineManifest(t, g, 0); !bytes.Equal(got, want) {
		t.Fatal("post-restart cluster manifest differs from single-node run")
	}
}

// TestRingOwnershipStability checks the consistent-hash properties the
// sharding policy relies on: every worker owns a share of a real grid,
// and removing one worker moves only the keys it owned.
func TestRingOwnershipStability(t *testing.T) {
	ids := []string{"w1", "w2", "w3"}
	r3 := buildRing(ids)
	units := sweep.Fig10Grid(0).Units()
	own := make(map[string]int)
	before := make(map[string]string, len(units))
	for _, u := range units {
		o := r3.owner(u.Key)
		own[o]++
		before[u.Key] = o
	}
	for _, id := range ids {
		if own[id] == 0 {
			t.Fatalf("worker %s owns no units of fig10: %v", id, own)
		}
	}
	r2 := buildRing([]string{"w1", "w3"})
	for _, u := range units {
		o := r2.owner(u.Key)
		if before[u.Key] != "w2" && o != before[u.Key] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", u.Key, before[u.Key], o)
		}
		if o == "w2" {
			t.Fatalf("key %s still owned by removed worker", u.Key)
		}
	}
	if buildRing(nil).owner("anything") != "" {
		t.Fatal("empty ring must own nothing")
	}
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
	fn := sweep.SimScheduler(pipeline.SchedulerEvent, g.Instr)
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
