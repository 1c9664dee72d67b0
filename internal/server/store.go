package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"atr/internal/sweep"
)

// storeFS is the job store's durable-write seam. Every write recovery
// depends on — spec.json, status.json, quotas.json and manifest.json (each
// a tmp write plus a rename) and the journal's create and appends — goes
// through it, so a test can crash the store at any one of those points.
// Telemetry files (perf.json, spans.jsonl) bypass it: nothing reads them
// to decide anything.
type storeFS interface {
	Create(name string) (io.WriteCloser, error)
	Rename(oldpath, newpath string) error
}

// osFS is the production storeFS.
type osFS struct{}

func (osFS) Create(name string) (io.WriteCloser, error) { return os.Create(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }

// persistedJob is the spec.json the job store keeps per job. Its presence
// is the commit point of an admission: a job directory without one was
// never acknowledged and is skipped by recovery.
type persistedJob struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant,omitempty"`
	SubmittedAt string  `json:"submitted_at"`
	Spec        JobSpec `json:"spec"`
}

// persistedStatus is the status.json marking a terminal, manifest-less
// outcome (failed or cancelled), so recovery does not resurrect the job.
// Done jobs are marked by their manifest instead, and interrupted jobs
// deliberately leave no marker — that is what makes them resumable.
type persistedStatus struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

func (c *Coordinator) jobDir(id string) string {
	return filepath.Join(c.opts.StateDir, "jobs", id)
}

func (c *Coordinator) jobFile(id, name string) string {
	return filepath.Join(c.jobDir(id), name)
}

func (c *Coordinator) quotaFile() string {
	return filepath.Join(c.opts.StateDir, "quotas.json")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// writeJSONAtomic replaces path with v's indented JSON via a tmp file and
// a rename, so a reader — or a restart — sees the old file or the new one,
// never a torn one.
func writeJSONAtomic(fs storeFS, path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(fs, path, append(b, '\n'))
}

func writeAtomic(fs storeFS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// persistSubmit makes an admission durable: the job directory, a journal
// bound to the grid, then spec.json as the commit point.
func (c *Coordinator) persistSubmit(j *job) error {
	if err := c.openJournal(j); err != nil {
		return err
	}
	return writeJSONAtomic(c.fs, c.jobFile(j.id, "spec.json"), persistedJob{
		ID: j.id, Tenant: j.tenant, SubmittedAt: j.submittedAt, Spec: j.spec,
	})
}

// openJournal creates (truncating) the job's journal with its binding
// header. Accepted records append to it, so the journal is always a
// complete account of the job's progress, loadable by sweep.LoadJournal
// and resumable like any offline journal.
func (c *Coordinator) openJournal(j *job) error {
	if err := os.MkdirAll(c.jobDir(j.id), 0o755); err != nil {
		return err
	}
	f, err := c.fs.Create(c.jobFile(j.id, "journal.jsonl"))
	if err != nil {
		return err
	}
	if err := sweep.AppendJournalHeader(f, j.grid, j.progress.Total); err != nil {
		f.Close()
		return err
	}
	j.journal = f
	j.flushes++
	return nil
}

// readStatus loads a job's terminal marker. A marker that exists but does
// not parse as a terminal state reads as failed: a damaged job is never
// resumed.
func readStatus(path string) (persistedStatus, bool) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return persistedStatus{}, false
	}
	var st persistedStatus
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err == nil && st.State != StateFailed && st.State != StateCancelled {
		err = fmt.Errorf("state %q is not a terminal marker", st.State)
	}
	if err != nil {
		return persistedStatus{State: StateFailed, Error: "unreadable status.json: " + err.Error()}, true
	}
	return st, true
}

func (c *Coordinator) loadQuotas() error {
	b, err := os.ReadFile(c.quotaFile())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var v QuotaView
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("server: quotas.json: %w", err)
	}
	for tenant, max := range v.Tenants {
		if max > 0 {
			c.quotas[tenant] = max
		}
	}
	return nil
}

// quotaViewLocked snapshots the quota table. Caller holds c.mu.
func (c *Coordinator) quotaViewLocked() QuotaView {
	v := QuotaView{DefaultMaxActive: c.opts.MaxActive, Tenants: make(map[string]int, len(c.quotas))}
	for tenant, max := range c.quotas {
		v.Tenants[tenant] = max
	}
	return v
}
