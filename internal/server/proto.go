package server

import "atr/internal/sweep"

// Wire types of the coordinator's /cluster/v1 worker API. Workers are
// pull-based: they register, heartbeat, poll for unit leases, and upload
// completed records. Everything a worker needs to execute a shard — the
// job spec and the resolved instruction budget — travels in the
// assignment, so workers are stateless between polls.

type registerRequest struct {
	// Name identifies the worker; re-registering an existing name
	// replaces the previous registration (the daemon restarted), and its
	// outstanding leases return to pending.
	Name string `json:"name"`
	// Addr, optional, is the worker's advertised /metrics address,
	// surfaced in the fleet view for operators.
	Addr       string `json:"addr,omitempty"`
	SimWorkers int    `json:"sim_workers,omitempty"`
}

type registerResponse struct {
	Worker string `json:"worker"`
	// HeartbeatMillis is the interval the worker should beat at; the
	// coordinator evicts a worker silent for its heartbeat timeout.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	LeaseMillis     int64 `json:"lease_millis"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
}

type pollRequest struct {
	Worker string `json:"worker"`
	// Max bounds the units leased by this poll; <= 0 selects the
	// coordinator's default. A worker slot asks for 1.
	Max int `json:"max,omitempty"`
}

// Assignment is one job's shard of unit leases granted to a worker. Seqs
// index the deterministic sweep.Grid.Units() expansion of Spec — the
// worker re-resolves the grid locally, which must (and, because
// JobSpec.ResolveGrid is pure, does) reproduce the coordinator's unit
// keys exactly. The in-process worker receives the same value by direct
// call.
type Assignment struct {
	Job  string  `json:"job"`
	Spec JobSpec `json:"spec"`
	// Instr is the effective per-run budget with the coordinator's
	// default already applied, so workers need no configuration of their
	// own to agree on run identity.
	Instr uint64 `json:"instr"`
	Seqs  []int  `json:"seqs"`
}

type pollResponse struct {
	Assignments []Assignment `json:"assignments,omitempty"`
}

type uploadRequest struct {
	Worker  string         `json:"worker"`
	Job     string         `json:"job"`
	Records []sweep.Record `json:"records,omitempty"`
	// SpecError reports that the worker could not resolve the job's grid
	// (version skew between daemons); the coordinator fails the job
	// rather than letting it starve.
	SpecError string `json:"spec_error,omitempty"`
}

type uploadResponse struct {
	Accepted  int `json:"accepted"`
	Duplicate int `json:"duplicate"`
}

// QuotaView is the coordinator's tenant-quota table (GET/PUT
// /cluster/v1/quotas): the default active-job ceiling and per-tenant
// overrides. Tenants are rate-limit client keys (X-ATR-Client, else the
// remote IP).
type QuotaView struct {
	// DefaultMaxActive caps concurrently active jobs per tenant; 0 means
	// unlimited.
	DefaultMaxActive int `json:"default_max_active"`
	// Tenants maps tenant to its override; an entry of 0 is removed
	// (fall back to the default).
	Tenants map[string]int `json:"tenants,omitempty"`
}

type quotaUpdate struct {
	Tenant    string `json:"tenant"`
	MaxActive int    `json:"max_active"`
}
