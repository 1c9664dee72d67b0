package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"atr/internal/pipeline"
)

// Schema identification for the two sweep artifacts: the append-only JSONL
// journal written while the sweep runs, and the deterministic manifest
// produced by the final merge.
const (
	JournalSchema   = "atr-sweep-journal"
	JournalVersion  = 1
	ManifestSchema  = "atr-sweep-grid"
	ManifestVersion = 1
)

// Record is the deterministic outcome of one run: everything in it is a
// pure function of (grid, injection settings), never of scheduling — worker
// identity and wall-clock live only in the journal's entry wrapper. This is
// what makes the merged manifest bit-identical across worker counts and
// resume splits.
type Record struct {
	Key      string          `json:"key"`
	Seq      int             `json:"seq"`
	Bench    string          `json:"bench"`
	Scheme   string          `json:"scheme"`
	PhysRegs int             `json:"phys_regs"`
	Sample   string          `json:"sample,omitempty"` // sampling plan; "" = exact
	Attempts int             `json:"attempts"`
	Err      string          `json:"error,omitempty"`
	Result   pipeline.Result `json:"result"`
	Detail   *Detail         `json:"detail,omitempty"` // only on a Detail grid's records
}

// journalHeader is the first line of a journal, binding it to one grid so a
// resume cannot silently mix results from a different sweep.
type journalHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Grid    string `json:"grid"`
	Instr   uint64 `json:"instr"`
	Total   int    `json:"total"`
}

// journalEntry wraps a Record with scheduling metadata that is allowed to
// vary between runs of the same grid. Node names the cluster worker that
// produced the record ("" outside a cluster, and omitted so single-node
// journals are byte-identical to pre-cluster ones); like Worker it is
// provenance only and never reaches the manifest.
type journalEntry struct {
	Record
	Worker int    `json:"worker"`
	Node   string `json:"node,omitempty"`
}

// AppendJournalHeader writes the binding header line of a new journal for
// grid g declaring total runs. Exported for the cluster coordinator, whose
// merged journal must be loadable by LoadJournal and resumable by the
// engine exactly like a single-node journal.
func AppendJournalHeader(w io.Writer, g Grid, total int) error {
	return appendJournalLine(w, journalHeader{
		Schema: JournalSchema, Version: JournalVersion,
		Grid: g.Name, Instr: g.Instr, Total: total,
	})
}

// AppendJournalRecord writes one completed-run line. worker is the pool
// worker index (-1 when not applicable, e.g. resumed or cluster-merged
// records); node names the cluster worker daemon that produced the record,
// "" outside a cluster.
func AppendJournalRecord(w io.Writer, rec Record, worker int, node string) error {
	return appendJournalLine(w, journalEntry{Record: rec, Worker: worker, Node: node})
}

// appendJournalLine appends one JSONL line in a single Write call, so an
// os.File journal is line-atomic in practice.
func appendJournalLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: journal encode: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: journal write: %w", err)
	}
	return nil
}

// Journal is a parsed sweep journal: the grid identity it was written
// against and every completed run it records.
type Journal struct {
	Grid    string
	Instr   uint64
	Total   int
	Records map[string]Record // by Record.Key
	Dropped int               // unparsable lines skipped (e.g. truncated mid-write)
}

// LoadJournal parses a JSONL sweep journal. The header line must parse and
// identify the journal schema; subsequent lines that fail to parse — the
// expected shape of a journal killed mid-write — are counted in Dropped
// and skipped, so a truncated journal still resumes. Later entries for the
// same key win (a resumed sweep re-appends records it re-executed).
func LoadJournal(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sweep: journal is empty")
	}
	var h journalHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("sweep: journal header: %w", err)
	}
	if h.Schema != JournalSchema {
		return nil, fmt.Errorf("sweep: journal schema %q, want %q", h.Schema, JournalSchema)
	}
	if h.Version != JournalVersion {
		return nil, fmt.Errorf("sweep: journal version %d, want %d", h.Version, JournalVersion)
	}
	j := &Journal{Grid: h.Grid, Instr: h.Instr, Total: h.Total, Records: make(map[string]Record)}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			j.Dropped++
			continue
		}
		j.Records[e.Key] = e.Record
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	return j, nil
}

// GridInfo is the manifest's record of the grid that was executed.
type GridInfo struct {
	Name     string   `json:"name"`
	Instr    uint64   `json:"instr"`
	Profiles []string `json:"profiles"`
	PhysRegs []int    `json:"phys_regs"`
	Schemes  []string `json:"schemes"`
	// SampleModes is the sampled-execution axis ("exact" plus sampling
	// plans); omitted for exact-only grids, whose manifests are
	// byte-identical to pre-axis ones.
	SampleModes []string `json:"sample_modes,omitempty"`
	Total       int      `json:"total"`
}

// Totals aggregates the deterministic outcome counts of a sweep.
type Totals struct {
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Committed uint64 `json:"committed"`
	Cycles    uint64 `json:"cycles"`
}

// Manifest is the deterministic merged result of one sweep: runs in grid
// order with scheduling metadata stripped. Two sweeps of the same grid —
// any worker count, any kill/resume split — serialize to identical bytes.
type Manifest struct {
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Grid    GridInfo `json:"grid"`
	Totals  Totals   `json:"totals"`
	Runs    []Record `json:"runs"`
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodeManifest parses and validates a sweep manifest.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("sweep: decode manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("sweep: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("sweep: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(m.Runs) != m.Grid.Total {
		return nil, fmt.Errorf("sweep: manifest has %d runs, grid declares %d", len(m.Runs), m.Grid.Total)
	}
	if m.Totals.Done+m.Totals.Failed != len(m.Runs) {
		return nil, fmt.Errorf("sweep: totals %d done + %d failed != %d runs",
			m.Totals.Done, m.Totals.Failed, len(m.Runs))
	}
	for i, r := range m.Runs {
		if r.Seq != i {
			return nil, fmt.Errorf("sweep: manifest run %d has seq %d (not in grid order)", i, r.Seq)
		}
	}
	return &m, nil
}
