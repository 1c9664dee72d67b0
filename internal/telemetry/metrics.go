// Package telemetry is the service stack's production metrics core: a
// lock-free registry of atomic counters, gauges, and fixed-bucket latency
// histograms with deterministic-order Prometheus text exposition, plus a
// JSONL span log for job-lifecycle tracing.
//
// The package exists because the serving hot paths (HTTP admission, queue
// hand-off, per-run accounting) must be observable without ever taking a
// lock or allocating on a record path. Every instrument is a plain atomic
// word (or a fixed array of them), padded to its own cache line so two
// instruments incremented by different cores never share a line. Reads for
// exposition are relaxed snapshots: each value read is a real value the
// instrument held at some point, which is all monitoring needs (DESIGN
// §3.1e) — the synchronizes-with edges that guard *results* never run
// through this package.
package telemetry

import (
	"sync/atomic"
	"time"
)

// pad fills an instrument out to a 64-byte cache line. Instruments embed
// their atomic word first and the pad after; since each instrument is
// allocated separately by the registry, this keeps concurrently-written
// words from sharing a line in the common case.
type pad [56]byte

// Counter is a monotonically increasing counter. The zero value is ready to
// use; obtain counters from a Registry when they should appear in exposition.
type Counter struct {
	v atomic.Uint64
	_ pad
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count (relaxed read).
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value (relaxed read).
func (g *Gauge) Value() int64 { return g.v.Load() }

// padUint64 is one histogram bucket on its own cache line.
type padUint64 struct {
	v atomic.Uint64
	_ pad
}

// LatencyHistogram counts durations into fixed cumulative-exposition
// buckets. Bounds are set at registration and never change, so Observe is
// a linear scan over a handful of int64 compares plus two atomic adds —
// no locks, no allocation. Snapshots taken for exposition may tear across
// buckets (a concurrent Observe can be visible in sum but not yet in its
// bucket, or vice versa); each individual word is still a real past value,
// which is sufficient for monitoring.
type LatencyHistogram struct {
	boundsNs  []int64   // upper bounds in nanoseconds, ascending
	boundsSec []float64 // same bounds in seconds, for exposition
	sumNs     atomic.Uint64
	_         pad
	buckets   []padUint64 // len(boundsNs)+1; last is +Inf
}

// DefBuckets is the default latency bucket layout: 100µs to 10s, roughly
// logarithmic — wide enough for HTTP handlers and multi-second grid runs.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(boundsSec []float64) *LatencyHistogram {
	h := &LatencyHistogram{
		boundsSec: append([]float64(nil), boundsSec...),
		boundsNs:  make([]int64, len(boundsSec)),
		buckets:   make([]padUint64, len(boundsSec)+1),
	}
	for i, b := range boundsSec {
		h.boundsNs[i] = int64(b * float64(time.Second))
	}
	return h
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for ; i < len(h.boundsNs); i++ {
		if ns <= h.boundsNs[i] {
			break
		}
	}
	h.buckets[i].v.Add(1)
	h.sumNs.Add(uint64(ns))
}

// Snapshot returns the bucket upper bounds (seconds), the per-bucket counts
// (non-cumulative, last bucket is +Inf), the sum of observations in
// seconds, and the total count.
func (h *LatencyHistogram) Snapshot() (bounds []float64, counts []uint64, sum float64, count uint64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].v.Load()
		count += counts[i]
	}
	return h.boundsSec, counts, float64(h.sumNs.Load()) / float64(time.Second), count
}

// Quantile estimates the q-th quantile (0 < q <= 1) of a histogram from
// cumulative bucket counts, interpolating linearly inside the bucket the
// quantile lands in. bounds are the finite upper bounds; cumulative must
// have len(bounds)+1 entries with the +Inf bucket last. Values in the +Inf
// bucket clamp to the largest finite bound. Returns 0 for an empty
// histogram.
func Quantile(bounds []float64, cumulative []uint64, q float64) float64 {
	if len(cumulative) == 0 || len(bounds)+1 != len(cumulative) {
		return 0
	}
	total := cumulative[len(cumulative)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cumulative {
		if float64(c) >= rank {
			if i >= len(bounds) { // +Inf bucket
				return bounds[len(bounds)-1]
			}
			lo, loCount := 0.0, uint64(0)
			if i > 0 {
				lo, loCount = bounds[i-1], cumulative[i-1]
			}
			width := float64(cumulative[i] - loCount)
			if width == 0 {
				return bounds[i]
			}
			return lo + (bounds[i]-lo)*(rank-float64(loCount))/width
		}
	}
	return bounds[len(bounds)-1]
}
