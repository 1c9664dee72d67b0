package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"atr/internal/obs"
	"atr/internal/telemetry"
)

// scrapeText fetches the Prometheus exposition from /metrics and runs it
// through the in-repo parser and linter, so every test scrape is also a
// conformance check.
func scrapeText(t *testing.T, base string) map[string]telemetry.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape: Content-Type = %q, want text/plain exposition", ct)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	if err := telemetry.Lint(fams); err != nil {
		t.Fatalf("lint exposition: %v", err)
	}
	byName := make(map[string]telemetry.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

func famValue(t *testing.T, fams map[string]telemetry.Family, name string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("exposition has no family %s", name)
	}
	total := 0.0
	for _, s := range f.Samples {
		total += s.Value
	}
	return total
}

// TestMetricsContentNegotiation pins the /metrics dual contract: Prometheus
// text by default, the JSON ServerInfo when the client accepts JSON (that
// is what atrctl sends, and what CI's cache-hit grep depends on). The one
// registry carries one family per quantity: the names the service folded
// away must stay gone.
func TestMetricsContentNegotiation(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))

	fams := scrapeText(t, hs.URL)
	for _, want := range []string{
		"atr_jobs_submitted_total", "atr_jobs_queued", "atr_jobs_running",
		"atr_rate_limited_total", "atr_runs_executed_total",
		"atr_result_cache_hits_total", "atr_http_requests_total",
		"atr_http_request_duration_seconds", "atr_queue_wait_seconds",
		"atr_run_duration_seconds", "atr_build_info", "atr_uptime_seconds",
		"atr_rate_clients", "atr_runner_programs_cached",
		"atr_cluster_units_from_cache_total", "atr_cluster_workers",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("exposition missing family %s", want)
		}
	}
	for _, gone := range []string{
		"atr_runs_from_cache_total", "atr_cluster_units_uploaded_total",
		"atr_cluster_jobs_submitted_total", "atr_cluster_jobs_done_total",
		"atr_runs_batched_total", "atr_batch_groups_total", "atr_runner_memo_hits_total",
	} {
		if _, ok := fams[gone]; ok {
			t.Errorf("exposition still carries duplicate or always-zero family %s", gone)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("json metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Accept: application/json got Content-Type %q", ct)
	}
	var info obs.ServerInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode ServerInfo: %v", err)
	}
	if info.QueueCap != c.opts.QueueDepth {
		t.Errorf("ServerInfo.QueueCap = %d, want %d", info.QueueCap, c.opts.QueueDepth)
	}
}

// TestExpositionCountersMonotonic runs a job between two scrapes and checks
// the counters that must move, move monotonically, and that the JSON view
// agrees with the Prometheus view (one instrument set, two renderings).
func TestExpositionCountersMonotonic(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	before := scrapeText(t, hs.URL)

	id := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800})
	waitState(t, c, id, StateDone)

	after := scrapeText(t, hs.URL)
	for _, name := range []string{
		"atr_jobs_submitted_total", "atr_jobs_done_total", "atr_runs_executed_total",
		"atr_http_requests_total",
	} {
		b, a := famValue(t, before, name), famValue(t, after, name)
		if a <= b {
			t.Errorf("%s did not increase across a job: %v -> %v", name, b, a)
		}
	}
	if got := famValue(t, after, "atr_runs_executed_total"); got != 1 {
		t.Errorf("atr_runs_executed_total = %v, want 1", got)
	}
	if got := famValue(t, after, "atr_jobs_done_total"); float64(c.Metrics().JobsDone) != got {
		t.Errorf("JSON JobsDone %d disagrees with exposition %v", c.Metrics().JobsDone, got)
	}

	// The run-duration histogram observed exactly the executed run.
	bounds, cum, _, count, err := telemetry.MergedHistogram(after["atr_run_duration_seconds"])
	if err != nil {
		t.Fatalf("MergedHistogram: %v", err)
	}
	if count != 1 {
		t.Errorf("atr_run_duration_seconds count = %d, want 1", count)
	}
	if q := telemetry.Quantile(bounds, cum, 0.5); q <= 0 {
		t.Errorf("run duration p50 = %v, want > 0", q)
	}
}

// gaugesZero asserts the queue-depth and running gauges both read zero —
// the drift invariant every terminal path must restore. Both change only
// inside the coordinator's lock, at the transitions themselves.
func gaugesZero(t *testing.T, c *Coordinator, when string) {
	t.Helper()
	if m := c.Metrics(); m.JobsQueued != 0 || m.JobsRunning != 0 {
		t.Errorf("%s: jobs_queued=%d jobs_running=%d, want 0/0", when, m.JobsQueued, m.JobsRunning)
	}
}

// TestGaugeDriftCancel drives both cancellation paths — cancelled while
// queued and cancelled while running — and checks the gauges return to
// zero and the cancel counter reflects both.
func TestGaugeDriftCancel(t *testing.T) {
	opts := testOptions(t)
	opts.SimWorkers = 1
	c, hs := newTestServer(t, opts)

	hold := make(chan struct{})
	started := make(chan string, 1)
	setBeforeRun(c, func(id string) {
		started <- id
		<-hold
	})

	// The first job's unit occupies the single slot; the second waits.
	running := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800})
	<-started
	queued := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "mcf", Instr: 800})

	if m := c.Metrics(); m.JobsRunning != 1 || m.JobsQueued != 1 {
		t.Fatalf("mid-flight: running=%d queued=%d, want 1/1", m.JobsRunning, m.JobsQueued)
	}

	cancelJob(t, hs.URL, queued)  // cancelled while queued
	cancelJob(t, hs.URL, running) // cancelled while running
	setBeforeRun(c, nil)
	close(hold)

	waitState(t, c, running, StateCancelled)
	waitState(t, c, queued, StateCancelled)
	gaugesZero(t, c, "after cancel")
	if got := c.Metrics().JobsCancelled; got != 2 {
		t.Errorf("JobsCancelled = %d, want 2", got)
	}
}

// TestGaugeDriftInjectedPanic submits a job whose only run panics on every
// attempt. The worker converts the panics to a recorded failure, the job
// still completes, and — the point here — the gauges return to zero.
func TestGaugeDriftInjectedPanic(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	id := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800, InjectPanic: 1})
	st := waitState(t, c, id, StateDone)
	gaugesZero(t, c, "after injected panic")

	if st.Progress.Failed != 1 {
		t.Errorf("injected panic: Failed = %d, want 1", st.Progress.Failed)
	}
	m := c.Metrics()
	if m.JobsDone != 1 || m.JobsFailed != 0 {
		t.Errorf("done=%d failed=%d, want job done (run-level failure only)", m.JobsDone, m.JobsFailed)
	}
}

// TestGaugeDriftDrainRestart interrupts a running job by draining the
// daemon, then restarts over the same state dir: the first daemon's gauges
// must return to zero at the drain, and the second daemon's must return to
// zero after the recovered job resumes and finishes.
func TestGaugeDriftDrainRestart(t *testing.T) {
	opts := testOptions(t)
	c1, hs1 := newTestServer(t, opts)
	hold := make(chan struct{})
	setBeforeRun(c1, func(string) { <-hold })

	id := submitJob(t, hs1.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 800})
	waitState(t, c1, id, StateRunning)
	if got := c1.Metrics().JobsRunning; got != 1 {
		t.Fatalf("running gauge = %d, want 1", got)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- c1.Shutdown(ctx)
	}()
	close(hold)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, c1, id, StateInterrupted)
	gaugesZero(t, c1, "after drain")

	c2, _ := newTestServer(t, opts)
	if got := c2.Metrics().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", got)
	}
	waitState(t, c2, id, StateDone)
	gaugesZero(t, c2, "after resume")
}

// TestRetryAfterHeaderValue pins the 429 Retry-After arithmetic: at 0.25
// tokens/sec with burst 1, a drained bucket needs 4 seconds per token, and
// the header must say exactly that (whole seconds, rounded up).
func TestRetryAfterHeaderValue(t *testing.T) {
	opts := testOptions(t)
	opts.Rate = 0.25
	opts.Burst = 1
	c, hs := newTestServer(t, opts)

	id, code, _ := trySubmit(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800}, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}

	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs",
		strings.NewReader(`{"kind":"run","bench":"gcc"}`))
	req.Header.Set("X-ATR-Client", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want \"4\" (1 token / 0.25 per sec)", got)
	}
	if got := c.Metrics().RateLimited; got != 1 {
		t.Errorf("RateLimited = %d, want 1", got)
	}
	waitState(t, c, id, StateDone)
}

// TestLimiterPruneShrinksClients exercises the idle-bucket prune directly:
// the tracked-client gauge grows under client churn and idle buckets are
// dropped once they have refilled to full, so a second wave of clients
// replaces the first instead of accumulating on top of it.
func TestLimiterPruneShrinksClients(t *testing.T) {
	l := NewLimiter(1, 5)
	now := time.Now()
	const wave = 2 * limiterPrune // comfortably past the prune threshold
	for i := 0; i < wave; i++ {
		l.Allow(fmt.Sprintf("client-%d", i), now)
	}
	if got := l.Clients(); got != wave {
		t.Fatalf("clients after churn = %d, want %d", got, wave)
	}
	// 10 idle seconds at rate 1 refills past burst 5: every first-wave
	// bucket carries no information, so the first prune scan of the second
	// wave drops them all.
	for i := 0; i < wave; i++ {
		l.Allow(fmt.Sprintf("late-client-%d", i), now.Add(10*time.Second))
	}
	if got := l.Clients(); got != wave {
		t.Errorf("clients after prune = %d, want %d (idle buckets dropped)", got, wave)
	}
}

// TestSpanLogLifecycle checks the span trace a completed job leaves in its
// state dir: submit, queue-wait, one run span per executed unit (carrying
// the journal's run key), and merge — plus a serve span after the manifest
// is fetched. Span run keys must match the sweep journal's keys, which is
// the correlation contract.
func TestSpanLogLifecycle(t *testing.T) {
	c, hs := newTestServer(t, testOptions(t))
	id := submitJob(t, hs.URL, JobSpec{Kind: "run", Bench: "gcc", Instr: 800})
	waitState(t, c, id, StateDone)
	_ = fetchManifest(t, hs.URL, id)

	f, err := os.Open(c.jobFile(id, "spans.jsonl"))
	if err != nil {
		t.Fatalf("open span log: %v", err)
	}
	defer f.Close()
	spans, dropped, err := telemetry.ReadSpans(f)
	if err != nil || dropped != 0 {
		t.Fatalf("ReadSpans: err=%v dropped=%d", err, dropped)
	}

	count := map[string]int{}
	for _, sp := range spans {
		count[sp.Name]++
		if sp.Job != id {
			t.Errorf("span %s carries job %q, want %q", sp.Name, sp.Job, id)
		}
		if sp.DurNS < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
		if sp.Name == "run" {
			if sp.RunKey == "" || sp.Bench != "gcc" {
				t.Errorf("run span missing correlation fields: key=%q bench=%q", sp.RunKey, sp.Bench)
			}
		}
	}
	for _, want := range []string{"submit", "queue-wait", "merge", "serve"} {
		if count[want] != 1 {
			t.Errorf("span %s count = %d, want 1", want, count[want])
		}
	}
	if count["run"] != 1 {
		t.Errorf("run span count = %d, want 1", count["run"])
	}
}

// --- helpers ---------------------------------------------------------------

func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
}
