package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atr/internal/checkpoint"
	"atr/internal/sweep"
)

// FuzzJobSpec feeds the admission path arbitrary request bodies: each is
// decoded as handleSubmit decodes one, then resolved and expanded into a job
// as submit does. No input may panic, and a job admission accepts must be
// runnable: unit keys unique, every unit's config valid and its sample mode
// parseable, so that no accepted unit is bound to fail on a worker.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range badSpecs {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"run","bench":"gcc","scheme":"combined","regs":64}`))
	f.Add([]byte(`{"kind":"grid","grid":"micro","instr":1500}`))
	f.Add([]byte(`{"kind":"grid","profiles":["gcc","mcf"],"phys_regs":[64,224],"schemes":["baseline","combined"],` +
		`"sample_modes":["exact","systematic:100000/2000/500"]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		g, err := spec.ResolveGrid(1000)
		if err != nil {
			return
		}
		j, err := newJob("j000001", "fuzz", spec, g)
		if err != nil {
			return
		}
		if len(j.byKey) != len(j.units) {
			t.Fatalf("accepted job has %d units but %d distinct keys", len(j.units), len(j.byKey))
		}
		for _, u := range j.units {
			if err := u.Config.Validate(); err != nil {
				t.Fatalf("accepted unit %d has an invalid config: %v", u.Seq, err)
			}
			if u.Sample != "" {
				if _, err := checkpoint.ParseMode(u.Sample); err != nil {
					t.Fatalf("accepted unit %d has an unparseable sample mode: %v", u.Seq, err)
				}
			}
		}
	})
}

// fuzzJob is the one job both upload and recovery fuzzing start from: a
// micro grid at 2,000 instructions, the first job of a fresh coordinator.
var fuzzJob = JobSpec{Kind: "grid", Grid: "micro", Instr: 2000}

const fuzzJobID = "j000001"

// fuzzCoordinator is atrd -coordinator over dir: no in-process worker, so
// nothing but the fuzz input delivers records.
func fuzzCoordinator(dir string) (*Coordinator, error) {
	return NewCoordinator(Options{StateDir: dir, DefaultInstr: 2000, SimWorkers: -1, Rate: -1})
}

// serve runs one request through c's handlers and returns the response. A
// request that does not return within a few seconds fails t: every
// handler takes the coordinator lock, so a hang means a path left it held.
func serve(t *testing.T, c *Coordinator, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s %s did not return", method, path)
	}
	return rec
}

// FuzzResultsUpload posts arbitrary bytes as a worker's upload to a live
// micro job that a registered worker holds. The coordinator must answer
// 200, 400 or 404 without panicking, release its lock (a status request
// still answers), and keep only records of the job's own units, one per
// unit at most.
func FuzzResultsUpload(f *testing.F) {
	g, err := fuzzJob.ResolveGrid(0)
	if err != nil {
		f.Fatal(err)
	}
	gridKeys := make(map[string]int)
	// Admission looks only at a record's key, so seed records carry the
	// key and seq alone: short seeds keep the fuzzer's minimizing fast.
	var recs []string
	for _, u := range g.Units() {
		gridKeys[u.Key] = u.Seq
		recs = append(recs, fmt.Sprintf(`{"key":%q,"seq":%d}`, u.Key, u.Seq))
	}
	upload := func(worker, job string, recs ...string) []byte {
		return []byte(fmt.Sprintf(`{"worker":%q,"job":%q,"records":[%s]}`, worker, job, strings.Join(recs, ",")))
	}
	f.Add(upload("w1", fuzzJobID, recs[:3]...))
	f.Add(upload("w1", fuzzJobID, recs...))
	f.Add(upload("w1", fuzzJobID, recs[5], recs[5]))
	f.Add(upload("w1", fuzzJobID, `{"key":"abababababababababababababababab","seq":0}`, recs[1]))
	f.Add(upload("w9", "j999999", recs[0]))
	f.Add([]byte(`{"worker":"w1","job":"j000001","spec_error":"unknown grid"}`))
	f.Add([]byte(`{"worker":"w1","job":"j000001","records":[{"key":null,"seq":-5}]}`))
	f.Add([]byte(`{"worker":"w1","job":"j000001","records":`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := fuzzCoordinator(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown(context.Background())
		if _, _, code, err := c.submit(fuzzJob, "fuzz"); err != nil {
			t.Fatalf("submit: %d %v", code, err)
		}
		if rec := serve(t, c, http.MethodPost, "/cluster/v1/register", []byte(`{"name":"w1"}`)); rec.Code != http.StatusOK {
			t.Fatalf("register: %d", rec.Code)
		}
		if rec := serve(t, c, http.MethodPost, "/cluster/v1/poll", []byte(`{"worker":"w1","max":4}`)); rec.Code != http.StatusOK {
			t.Fatalf("poll: %d", rec.Code)
		}

		switch code := serve(t, c, http.MethodPost, "/cluster/v1/results", data).Code; code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("upload answered %d", code)
		}
		var st Status
		rec := serve(t, c, http.MethodGet, "/v1/jobs/"+fuzzJobID, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("status after upload: %d %v", rec.Code, err)
		}
		if n := st.Progress.Done + st.Progress.Failed; n > st.Total {
			t.Fatalf("job counts %d records for %d units", n, st.Total)
		}

		var runs []sweep.Record
		c.mu.Lock()
		for _, r := range c.jobs[fuzzJobID].recs {
			if r != nil {
				runs = append(runs, *r)
			}
		}
		c.mu.Unlock()
		if st.State == StateDone {
			rec := serve(t, c, http.MethodGet, "/v1/jobs/"+fuzzJobID+"/manifest", nil)
			done, err := sweep.DecodeManifest(rec.Body)
			if err != nil {
				t.Fatalf("done job's manifest: %v", err)
			}
			runs = done.Runs
		}
		if st.State != StateFailed && len(runs) != st.Progress.Done+st.Progress.Failed {
			t.Fatalf("job holds %d records, progress counts %d", len(runs), st.Progress.Done+st.Progress.Failed)
		}
		for _, r := range runs {
			if seq, ok := gridKeys[r.Key]; !ok || seq != r.Seq {
				t.Fatalf("job holds record %q at seq %d, which is not its grid's", r.Key, r.Seq)
			}
		}
	})
}

// FuzzRecoverState writes arbitrary status.json and quotas.json bytes into
// the state directory of an unfinished job before a coordinator recovers
// it. The coordinator must either refuse to start with an error or come
// up with that job terminal: a damaged marker never resumes a job, and no
// input panics.
func FuzzRecoverState(f *testing.F) {
	f.Add([]byte(`{"state":"canc`), []byte(`{}`))
	f.Add([]byte(`{"state":"running"}`), []byte(`{"tenants":{"a":2}}`))
	f.Add([]byte(`{"state":"cancelled","error":"cancelled"}`), []byte(`{"default_max_active":1,"tenants":{"a":-1,"b":0}}`))
	f.Add([]byte(`{"state":"failed"}`), []byte(`null`))
	f.Add([]byte(``), []byte(`[]`))

	seed := f.TempDir()
	c, err := fuzzCoordinator(seed)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, code, err := c.submit(fuzzJob, "fuzz"); err != nil {
		f.Fatalf("submit: %d %v", code, err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte) // the seed state, by path under its root
	err = filepath.WalkDir(seed, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, seed)] = b
		return err
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, status, quotas []byte) {
		dir := t.TempDir()
		probe := &Coordinator{opts: Options{StateDir: dir}}
		state := maps.Clone(files)
		state[strings.TrimPrefix(probe.jobFile(fuzzJobID, "status.json"), dir)] = status
		state[strings.TrimPrefix(probe.quotaFile(), dir)] = quotas
		for name, b := range state {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := fuzzCoordinator(dir)
		if err != nil {
			return
		}
		defer c.Shutdown(context.Background())
		c.mu.Lock()
		j, ok := c.jobs[fuzzJobID]
		got := ""
		if ok {
			got = j.state
		}
		c.mu.Unlock()
		if !ok || !terminal(got) {
			t.Fatalf("job %s recovered as %q (present %v) from status.json %q", fuzzJobID, got, ok, status)
		}
	})
}
