package server

import (
	"container/list"
	"fmt"
	"sync"

	"atr/internal/sweep"
	"atr/internal/telemetry"
)

// RunCache is the content-addressed result cache: completed run records
// keyed by the sweep engine's SHA-256 run key plus the instruction budget
// (the one run parameter the key does not cover). Identical runs submitted
// by any client — inside any grid, executed by any worker — are served
// from here without re-simulating; because records are deterministic in
// (profile, config, instr), a cached record is byte-for-byte the record a
// fresh simulation would produce, so cache hits cannot perturb manifest
// identity.
//
// One mutex guards one LRU. The coordinator already calls Get and Put
// under its own lock, so finer locking here could not add concurrency.
type RunCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of string cache keys; front = most recent
	byKey map[string]*cacheEntry

	// hits/misses are registry instruments owned by the caller's telemetry
	// registry; the cache records into them so lookups show up in /metrics
	// without a second set of counters to keep in sync.
	hits   *telemetry.Counter
	misses *telemetry.Counter
}

type cacheEntry struct {
	rec  sweep.Record
	elem *list.Element
}

// NewRunCache creates a cache holding up to capacity records (<= 0 selects
// 65536). hits/misses may be nil; private counters are used then.
func NewRunCache(capacity int, hits, misses *telemetry.Counter) *RunCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	if hits == nil {
		hits = new(telemetry.Counter)
	}
	if misses == nil {
		misses = new(telemetry.Counter)
	}
	return &RunCache{cap: capacity, lru: list.New(), byKey: make(map[string]*cacheEntry),
		hits: hits, misses: misses}
}

func cacheKey(runKey string, instr uint64) string {
	return fmt.Sprintf("%s@%d", runKey, instr)
}

// Get returns the cached record for (runKey, instr), if any.
func (c *RunCache) Get(runKey string, instr uint64) (sweep.Record, bool) {
	k := cacheKey(runKey, instr)
	c.mu.Lock()
	e, ok := c.byKey[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return sweep.Record{}, false
	}
	c.lru.MoveToFront(e.elem)
	rec := e.rec
	c.mu.Unlock()
	c.hits.Inc()
	return rec, true
}

// Put stores a successful record. Failed records are never cached: a retry
// of the same unit must actually re-execute.
func (c *RunCache) Put(runKey string, instr uint64, rec sweep.Record) {
	if rec.Err != "" {
		return
	}
	k := cacheKey(runKey, instr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		e.rec = rec
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{rec: rec}
	e.elem = c.lru.PushFront(k)
	c.byKey[k] = e
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		delete(c.byKey, back.Value.(string))
		c.lru.Remove(back)
	}
}

// Stats snapshots cache effectiveness counters.
func (c *RunCache) Stats() (hits, misses, size, capacity int) {
	c.mu.Lock()
	size = c.lru.Len()
	c.mu.Unlock()
	return int(c.hits.Value()), int(c.misses.Value()), size, c.cap
}
