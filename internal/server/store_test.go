package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"atr/internal/sweep"
)

var errCrashed = errors.New("injected crash")

// crashFS is a storeFS that crashes at its k-th write point (1-based): a
// create or rename there does not happen, a data write keeps only a
// prefix of its bytes, and every later write fails. With k <= 0 it never
// crashes and just counts the write points.
type crashFS struct {
	mu   sync.Mutex
	k, n int
}

const (
	fsLive = iota
	fsCrash
	fsDead
)

func (f *crashFS) point() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	switch {
	case f.k <= 0 || f.n < f.k:
		return fsLive
	case f.n == f.k:
		return fsCrash
	}
	return fsDead
}

func (f *crashFS) Create(name string) (io.WriteCloser, error) {
	if f.point() != fsLive {
		return nil, errCrashed
	}
	file, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: f, file: file}, nil
}

func (f *crashFS) Rename(oldpath, newpath string) error {
	if f.point() != fsLive {
		return errCrashed
	}
	return os.Rename(oldpath, newpath)
}

type crashFile struct {
	fs   *crashFS
	file *os.File
}

func (w *crashFile) Write(b []byte) (int, error) {
	switch w.fs.point() {
	case fsLive:
		return w.file.Write(b)
	case fsCrash:
		n, _ := w.file.Write(b[:len(b)/2])
		return n, errCrashed
	}
	return 0, errCrashed
}

func (w *crashFile) Close() error { return w.file.Close() }

// submitAndSettle admits spec on c and waits for the job to end; it
// returns the job ID and the admission error, if any.
func submitAndSettle(t *testing.T, c *Coordinator, spec JobSpec) (string, error) {
	t.Helper()
	j, _, _, err := c.submit(spec, "t")
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	changed := j.changed
	for j.live() {
		c.mu.Unlock()
		<-changed
		c.mu.Lock()
		changed = j.changed
	}
	c.mu.Unlock()
	return j.id, nil
}

// TestCrashPointConvergence crashes the job store at every durable write
// of a micro-grid job in turn — spec, journal create and appends, manifest
// tmp write and rename — then starts a fresh coordinator over the same
// state dir. Whatever the crash left behind, the job (resubmitted only if
// its admission never committed) finishes with a manifest byte-identical
// to offline atrsweep, and an acknowledged admission is never lost.
func TestCrashPointConvergence(t *testing.T) {
	spec := JobSpec{Kind: "grid", Grid: "micro", Instr: 600}
	want := offlineManifest(t, sweep.MicroGrid(600), 0)
	opts := func(dir string) Options {
		return Options{StateDir: dir, DefaultInstr: 1000, SimWorkers: 2, Rate: -1}
	}
	stop := func(c *Coordinator) {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	counter := &crashFS{}
	c, err := newCoordinator(opts(t.TempDir()), counter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndSettle(t, c, spec); err != nil {
		t.Fatal(err)
	}
	stop(c)
	points := counter.n
	// journal create + header + 24 records, and spec.json and
	// manifest.json as create + write + rename each.
	if points != 32 {
		t.Fatalf("an uninterrupted micro job makes %d durable writes, want 32", points)
	}

	for k := 1; k <= points; k++ {
		dir := t.TempDir()
		c1, err := newCoordinator(opts(dir), &crashFS{k: k})
		if err != nil {
			t.Fatal(err)
		}
		id, admitErr := submitAndSettle(t, c1, spec)
		stop(c1)

		c2, err := NewCoordinator(opts(dir))
		if err != nil {
			t.Fatalf("crash at %d: restart: %v", k, err)
		}
		c2.mu.Lock()
		_, known := c2.jobs[id]
		c2.mu.Unlock()
		switch {
		case admitErr == nil && !known:
			t.Fatalf("crash at %d: acknowledged job %s lost", k, id)
		case admitErr != nil:
			// The client saw the admission fail and submits again.
			if id, err = submitAndSettle(t, c2, spec); err != nil {
				t.Fatalf("crash at %d: resubmit: %v", k, err)
			}
		}
		waitState(t, c2, id, StateDone)
		got, err := os.ReadFile(c2.jobFile(id, "manifest.json"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("crash at %d: manifest differs from offline (err %v)", k, err)
		}
		stop(c2)
	}
}

// TestFinishedJobReleasesRecords pins that a terminal job keeps only what
// Status and /perf report: its units, records, leases and key index go
// with the terminal transition, while status, list, manifest and late
// duplicate uploads still behave.
func TestFinishedJobReleasesRecords(t *testing.T) {
	opts := testOptions(t)
	c, hs := newTestServer(t, opts)
	id := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 700})
	waitState(t, c, id, StateDone)

	hold := make(chan struct{})
	setBeforeRun(c, func(string) { <-hold })
	cancelled := submitJob(t, hs.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 750})
	waitState(t, c, cancelled, StateRunning)
	cancelJob(t, hs.URL, cancelled)
	setBeforeRun(c, nil)
	close(hold)

	c.mu.Lock()
	for _, jid := range []string{id, cancelled} {
		j := c.jobs[jid]
		if j.units != nil || j.recs != nil || j.leases != nil || j.byKey != nil || j.journal != nil || j.grid.Profiles != nil {
			t.Errorf("terminal job %s still holds per-unit state", jid)
		}
	}
	c.mu.Unlock()

	st := jobStatus(t, hs.URL, id)
	if st.State != StateDone || st.Grid != "micro" || st.Total != 24 || st.Progress.Done != 24 {
		t.Fatalf("status after release = %+v", st)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	decodeInto(t, resp, &list)
	if len(list) != 2 || list[0].ID != id || list[1].State != StateCancelled {
		t.Fatalf("list after release = %+v", list)
	}
	served := fetchManifest(t, hs.URL, id)
	if !bytes.Equal(served, offlineManifest(t, sweep.MicroGrid(700), 0)) {
		t.Fatal("manifest of a released job differs from offline")
	}

	// A late duplicate upload for the finished job is discarded.
	m, err := sweep.DecodeManifest(bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	fake := newFakeWorker(t, hs.URL, "late")
	up := fake.upload(t, id, m.Runs[3])
	if up.Accepted != 0 || up.Duplicate != 1 {
		t.Fatalf("late upload: %+v, want one duplicate", up)
	}
	if st2 := jobStatus(t, hs.URL, id); st2.Progress != st.Progress || st2.State != StateDone {
		t.Fatalf("late upload changed the job: %+v", st2)
	}
}

// TestUnparseableStatusIsFailed pins recovery of a damaged terminal
// marker: a status.json that does not parse, or names no terminal state,
// makes the job terminally failed, and it is never resumed.
func TestUnparseableStatusIsFailed(t *testing.T) {
	opts := testOptions(t)
	opts.SimWorkers = -1 // nothing leases, so both jobs stay unfinished
	c1, hs1 := newTestServer(t, opts)
	torn := submitJob(t, hs1.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 500})
	odd := submitJob(t, hs1.URL, JobSpec{Kind: "grid", Grid: "micro", Instr: 550})
	if err := c1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id, body := range map[string]string{torn: `{"state":"canc`, odd: `{"state":"running"}`} {
		if err := os.WriteFile(c1.jobFile(id, "status.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	opts.SimWorkers = 2
	c2, hs2 := newTestServer(t, opts)
	for _, id := range []string{torn, odd} {
		st := jobStatus(t, hs2.URL, id)
		if st.State != StateFailed || !strings.Contains(st.Error, "unreadable status.json") {
			t.Errorf("job %s recovered as %s (%q), want failed on its unreadable marker", id, st.State, st.Error)
		}
	}
	if m := c2.Metrics(); m.JobsRecovered != 0 || m.JobsQueued != 0 || m.RunsExecuted != 0 {
		t.Errorf("damaged jobs were resumed: %+v", m)
	}
}
