package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"atr/internal/sweep"
)

// TestWorkerEvictionOnHeartbeatTimeout proves membership is
// liveness-driven: a worker that stops beating is evicted by the reaper,
// its later heartbeats are refused with 404 (the re-register signal), and
// the fleet view reflects the departure.
func TestWorkerEvictionOnHeartbeatTimeout(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout = 150 * time.Millisecond
	c, hs := newTestCoordinator(t, opts)

	fake := newFakeWorker(t, hs.URL, "mortal")
	if got := len(c.Fleet().Workers); got != 1 {
		t.Fatalf("fleet size %d after register, want 1", got)
	}
	if resp := fake.heartbeat(t); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat while live: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(c.Fleet().Workers) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker not evicted after heartbeat timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.tm.workersEvicted.Value(); got != 1 {
		t.Fatalf("workersEvicted = %d, want 1", got)
	}
	if resp := fake.heartbeat(t); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat after eviction: status %d, want 404", resp.StatusCode)
	}
}

// TestStealBackAfterWorkerDeath is the deterministic steal-back check: a
// worker leases the whole grid, uploads a prefix, and dies silently (the
// SIGKILL shape — no goodbye, no lease release). Eviction reclaims its
// leases, a late-joining worker steals them, and the merged manifest is
// byte-identical — with the dead worker's uploaded records adopted, never
// re-executed.
func TestStealBackAfterWorkerDeath(t *testing.T) {
	opts := clusterOptions(t)
	opts.HeartbeatTimeout = 200 * time.Millisecond
	opts.LeaseTimeout = time.Hour // steal-back must come from eviction, not lease expiry
	c, hs := newTestCoordinator(t, opts)

	g := sweep.MicroGrid(500)
	total := len(g.Units())
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})

	dead := newFakeWorker(t, hs.URL, "doomed")
	var leased int
	for _, a := range dead.poll(t, total) {
		// Upload the first three records of the first assignment, then
		// go silent with the rest of the grid still leased.
		if leased == 0 {
			recs := dead.execute(t, a)
			for i := 0; i < 3 && i < len(recs); i++ {
				dead.upload(t, a.Job, recs[i])
			}
		}
		leased += len(a.Seqs)
	}
	if leased != total {
		t.Fatalf("dead worker leased %d units, want the whole grid (%d)", leased, total)
	}
	uploadedAttempts := jobStatus(t, hs.URL, st.ID).Progress.Done
	if uploadedAttempts != 3 {
		t.Fatalf("done after prefix upload = %d, want 3", uploadedAttempts)
	}

	startWorker(t, hs.URL, "rescuer", 2)
	waitState(t, c, st.ID, StateDone)

	if got := c.tm.unitsStolen.Value(); got < uint64(total-3) {
		t.Fatalf("unitsStolen = %d, want >= %d (dead worker's outstanding leases)", got, total-3)
	}
	if got := c.tm.workersEvicted.Value(); got != 1 {
		t.Fatalf("workersEvicted = %d, want 1", got)
	}
	got := fetchManifest(t, hs.URL, st.ID)
	if want := offlineManifest(t, g, 0); !bytes.Equal(got, want) {
		t.Fatal("manifest after steal-back differs from single-node run")
	}
}

// TestDuplicateUploadIdempotence uploads every record twice — the wire
// shape of a retried upload or a steal-back race — and proves the
// coordinator discards duplicates without perturbing counts or bytes.
func TestDuplicateUploadIdempotence(t *testing.T) {
	opts := clusterOptions(t)
	c, hs := newTestCoordinator(t, opts)

	g := sweep.MicroGrid(500)
	total := len(g.Units())
	st := submitSpec(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})

	fake := newFakeWorker(t, hs.URL, "echo")
	done := 0
	for _, a := range fake.poll(t, total) {
		for _, rec := range fake.execute(t, a) {
			first := fake.upload(t, a.Job, rec)
			if first.Accepted != 1 || first.Duplicate != 0 {
				t.Fatalf("first upload: %+v, want accepted", first)
			}
			second := fake.upload(t, a.Job, rec)
			if second.Accepted != 0 || second.Duplicate != 1 {
				t.Fatalf("second upload: %+v, want duplicate", second)
			}
			done++
		}
	}
	if done != total {
		t.Fatalf("executed %d units, want %d", done, total)
	}
	if got := c.tm.dupUploads.Value(); got < uint64(total) {
		t.Fatalf("dupUploads = %d, want >= %d", got, total)
	}
	final := waitState(t, c, st.ID, StateDone)
	if final.Progress.Done != total {
		t.Fatalf("done = %d, want %d (duplicates must not double-count)", final.Progress.Done, total)
	}
	got := fetchManifest(t, hs.URL, st.ID)
	if want := offlineManifest(t, g, 0); !bytes.Equal(got, want) {
		t.Fatal("manifest after duplicate uploads differs from single-node run")
	}

	// A record whose key matches no unit is counted and dropped, not 500ed.
	bogus := sweep.Record{Key: "00000000000000000000000000000000"}
	resp := fake.upload(t, st.ID, bogus)
	if resp.Accepted != 0 {
		t.Fatalf("bogus record accepted: %+v", resp)
	}
}

// TestQuotaExceeded429 exercises the per-tenant active-job quota layered
// on the token-bucket limiter: the tenant at its ceiling gets 429 +
// Retry-After, other tenants are unaffected, and finishing a job frees
// the slot. Quota overrides persist through PUT /cluster/v1/quotas.
func TestQuotaExceeded429(t *testing.T) {
	opts := clusterOptions(t)
	c, hs := newTestCoordinator(t, opts)

	put := func(tenant string, max int) QuotaView {
		req, _ := http.NewRequest(http.MethodPut, hs.URL+"/cluster/v1/quotas",
			bytes.NewReader([]byte(`{"tenant":"`+tenant+`","max_active":`+itoa(max)+`}`)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quota put: status %d", resp.StatusCode)
		}
		var v QuotaView
		decodeInto(t, resp, &v)
		return v
	}
	v := put("alice", 1)
	if v.Tenants["alice"] != 1 {
		t.Fatalf("quota view %+v, want alice=1", v)
	}

	submitAs := func(tenant string) *http.Response {
		body := []byte(`{"kind":"grid","grid":"micro","instr":500}`)
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-ATR-Client", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// No workers are registered, so alice's first job stays active.
	first := submitAs("alice")
	var st Status
	decodeInto(t, first, &st)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", first.StatusCode)
	}

	second := submitAs("alice")
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over quota: status %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 carries no Retry-After")
	}
	if got := c.tm.quotaRejected.Value(); got != 1 {
		t.Fatalf("quotaRejected = %d, want 1", got)
	}

	// Another tenant is not constrained by alice's quota.
	bob := submitAs("bob")
	bob.Body.Close()
	if bob.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202", bob.StatusCode)
	}

	// Cancelling alice's job frees her slot.
	del, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	third := submitAs("alice")
	third.Body.Close()
	if third.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after cancel: status %d, want 202", third.StatusCode)
	}

	// Removing the override restores the (unlimited) default.
	v = put("alice", 0)
	if _, ok := v.Tenants["alice"]; ok {
		t.Fatalf("quota view %+v, want alice override removed", v)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	return string(rune('0' + n))
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}
