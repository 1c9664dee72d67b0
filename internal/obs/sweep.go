package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SweepProgress is one live progress tick of a grid sweep, emitted after
// every completed (or finally failed) run. Counts are cumulative.
type SweepProgress struct {
	Done    int // runs completed successfully (including resumed)
	Failed  int // runs that exhausted their retries
	Retried int // retry attempts consumed so far
	Resumed int // runs satisfied from the resume journal
	Total   int // grid size
	Bench   string
	Scheme  string
	Worker  int
	Err     string // failure message of the run that just finished, if any
}

// ShardStat is one worker's contribution to a sweep: the per-shard
// throughput view of the engine.
type ShardStat struct {
	Worker       int     `json:"worker"`
	Runs         int     `json:"runs"`
	Failed       int     `json:"failed,omitempty"`
	Committed    uint64  `json:"committed"`
	Cycles       uint64  `json:"cycles"`
	BusySeconds  float64 `json:"busy_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// SweepInfo summarizes the scheduling side of one sweep execution: outcome
// counts, journal activity, and per-shard throughput. Unlike the sweep's
// deterministic result manifest, this is wall-clock data and varies run to
// run; it belongs in the observability manifest, not the results artifact.
type SweepInfo struct {
	Workers        int         `json:"workers"`
	Total          int         `json:"total"`
	Done           int         `json:"done"`
	Failed         int         `json:"failed"`
	Retried        int         `json:"retried"`
	Resumed        int         `json:"resumed"`
	JournalFlushes int         `json:"journal_flushes"`
	WallSeconds    float64     `json:"wall_seconds"`
	CyclesPerSec   float64     `json:"cycles_per_sec"` // executed (non-resumed) runs only
	Shards         []ShardStat `json:"shards,omitempty"`

	// Lockstep lane telemetry. Batch is the lane cap (1 when a caller's
	// RunFunc ran every unit solo); Batches counts lockstep groups
	// executed; BatchedRuns counts units that ran inside multi-lane
	// groups. The phase seconds attribute grouped wall clock to lane
	// construction (Setup), lockstep simulation (Exec), and — for the
	// whole sweep — manifest assembly (Merge). Like everything else here
	// this is scheduling telemetry: grouping never changes the result
	// manifest.
	Batch        int     `json:"batch,omitempty"`
	Batches      int     `json:"batches,omitempty"`
	BatchedRuns  int     `json:"batched_runs,omitempty"`
	SetupSeconds float64 `json:"setup_seconds,omitempty"`
	ExecSeconds  float64 `json:"exec_seconds,omitempty"`
	MergeSeconds float64 `json:"merge_seconds,omitempty"`

	// Provenance: where and when this sweep executed. Like the rest of
	// SweepInfo it varies run to run, which is exactly why it lives here
	// and never in the deterministic result manifest.
	Host       string `json:"host,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`  // RFC3339
	FinishedAt string `json:"finished_at,omitempty"` // RFC3339
	JobID      string `json:"job_id,omitempty"`      // server job, when one ran this sweep

	// Sample, when present, records that the grid carried a sampled-
	// execution axis and how many units ran sampled vs. exact. Grids
	// without the axis never emit this block.
	Sample *SampleSweepInfo `json:"sample,omitempty"`
}

// SampleSweepInfo is the sweep-level sampled-execution provenance block.
type SampleSweepInfo struct {
	Modes       []string `json:"modes"` // axis values; "exact" = full detail
	SampledRuns int      `json:"sampled_runs"`
	ExactRuns   int      `json:"exact_runs"`
}

// Perf-manifest schema identification: the scheduling-telemetry artifact
// written beside (never inside) a sweep's deterministic result manifest.
const (
	PerfManifestSchema  = "atr-sweep-perf"
	PerfManifestVersion = 1
)

// PerfManifest is grid mode's scheduling telemetry artifact: everything
// nondeterministic about a sweep execution — wall clock, shard throughput,
// provenance — kept out of the result manifest so the latter stays
// byte-comparable across worker counts, resume splits, and hosts.
type PerfManifest struct {
	Schema  string    `json:"schema"`
	Version int       `json:"version"`
	Build   BuildInfo `json:"build"`
	Sweep   SweepInfo `json:"sweep"`
}

// NewPerfManifest wraps a sweep's telemetry with schema identification and
// build provenance.
func NewPerfManifest(info SweepInfo) PerfManifest {
	return PerfManifest{Schema: PerfManifestSchema, Version: PerfManifestVersion, Build: Build(), Sweep: info}
}

// Encode writes the perf manifest as indented JSON.
func (m PerfManifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DecodePerfManifest parses and validates a perf manifest.
func DecodePerfManifest(r io.Reader) (PerfManifest, error) {
	var m PerfManifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return m, fmt.Errorf("obs: decode perf manifest: %w", err)
	}
	if m.Schema != PerfManifestSchema {
		return m, fmt.Errorf("obs: perf manifest schema %q, want %q", m.Schema, PerfManifestSchema)
	}
	if m.Version != PerfManifestVersion {
		return m, fmt.Errorf("obs: perf manifest version %d, want %d", m.Version, PerfManifestVersion)
	}
	return m, nil
}

// ServerInfo is the atrd daemon's /metrics snapshot: job and queue
// accounting, rate limiting, and result-cache effectiveness. All counts are
// cumulative since daemon start except the gauges (queue depth, running,
// cache size).
type ServerInfo struct {
	Build         BuildInfo `json:"build"`
	StartedAt     string    `json:"started_at"` // RFC3339
	UptimeSeconds float64   `json:"uptime_seconds"`

	JobsSubmitted int `json:"jobs_submitted"`
	JobsQueued    int `json:"jobs_queued"`  // gauge
	JobsRunning   int `json:"jobs_running"` // gauge
	JobsDone      int `json:"jobs_done"`
	JobsFailed    int `json:"jobs_failed"`
	JobsCancelled int `json:"jobs_cancelled"`
	JobsRecovered int `json:"jobs_recovered"` // re-enqueued from the state dir at startup

	QueueCap    int `json:"queue_cap"`
	RateLimited int `json:"rate_limited"` // submissions refused with 429

	RunsExecuted  int `json:"runs_executed"`   // simulations actually run
	RunsFromCache int `json:"runs_from_cache"` // units satisfied by the result cache
	CacheHits     int `json:"cache_hits"`
	CacheMisses   int `json:"cache_misses"`
	CacheSize     int `json:"cache_size"` // gauge
	CacheCap      int `json:"cache_cap"`

	// Telemetry-registry additions (PR 6). The JSON view is a snapshot of
	// the same lock-free instruments /metrics exposes in Prometheus format;
	// fields are additive so existing atrctl clients keep parsing.
	HTTPRequests   int `json:"http_requests"`          // all routes, all codes
	LimiterClients int `json:"limiter_clients"`        // gauge: token buckets tracked
	RunnerPrograms int `json:"runner_programs_cached"` // gauge: resident program images
}
