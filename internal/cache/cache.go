// Package cache models the memory hierarchy of Table 1: set-associative
// write-back caches with LRU replacement (L1I, L1D, unified L2, shared LLC),
// a fixed-latency DRAM backend, MSHRs that merge outstanding misses per
// line, and a stream prefetcher.
package cache

import "atr/internal/config"

// Cache is one set-associative cache level with LRU replacement. Recency is
// tracked as a compact per-set way order (order[set*ways] is the MRU way,
// the tail is the LRU victim) instead of per-line timestamps: the common hit
// costs a single tag compare against the MRU way, and victim selection reads
// the tail instead of scanning for a minimum stamp. The hit/miss stream and
// eviction choices are identical to the timestamp formulation
// (TestCacheMatchesStampReference proves it against a retained reference).
//
// Backing storage is allocated lazily in chunks of 64 sets on the first
// fill that touches a chunk. Short simulations touch a small fraction of a
// large LLC's sets, and sweeps construct one hierarchy per grid unit, so
// eager allocation dominated sweep heap traffic (~45% of allocated bytes)
// for arrays that were mostly never read. An untouched chunk behaves
// exactly like all-invalid ways: Lookup and Contains miss without
// materializing it.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	chunks    []cacheChunk // lazily materialized, chunkSets sets each

	Hits   uint64
	Misses uint64
}

// chunkSetsShift sizes a lazily-allocated chunk: 64 sets balances
// allocation granularity (a 16-way chunk is ~10 KB) against how much of a
// cold LLC a short run actually touches.
const (
	chunkSetsShift = 6
	chunkSets      = 1 << chunkSetsShift
)

// cacheChunk holds chunkSets sets' worth of tag/dirty/recency state; nil
// slices until the first Fill into the chunk.
type cacheChunk struct {
	tags  []uint64 // 0 = invalid (tags stored with +1 bias)
	dirty []bool
	order []uint8 // per-set permutation of ways, MRU first
}

// materialize allocates the chunk's arrays with every way invalid and the
// identity recency order — byte-for-byte the state eager allocation gave
// every set at construction.
func (ch *cacheChunk) materialize(ways int) {
	n := chunkSets * ways
	ch.tags = make([]uint64, n)
	ch.dirty = make([]bool, n)
	ch.order = make([]uint8, n)
	for s := 0; s < chunkSets; s++ {
		for w := 0; w < ways; w++ {
			ch.order[s*ways+w] = uint8(w)
		}
	}
}

// New builds a cache from a level configuration.
func New(cfg config.CacheConfig) *Cache {
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	sets := cfg.Sets()
	return &Cache{
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: shift,
		chunks:    make([]cacheChunk, (sets+chunkSets-1)/chunkSets),
	}
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// LineShift exposes the line-offset bit count so hot external loops can
// compare line numbers without a method call per access.
func (c *Cache) LineShift() uint { return c.lineShift }

func (c *Cache) setOf(line uint64) int {
	return int((line >> c.lineShift) % uint64(c.sets))
}

// Lookup probes for addr's line. A hit refreshes the recency order and sets
// the dirty bit when write is true.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	line := c.LineAddr(addr)
	set := c.setOf(line)
	ch := &c.chunks[set>>chunkSetsShift]
	if ch.tags == nil {
		// Untouched chunk: every way invalid, unconditional miss.
		c.Misses++
		return false
	}
	base := (set & (chunkSets - 1)) * c.ways
	ord := ch.order[base : base+c.ways]
	t := line + 1
	// MRU fast path: locality makes the most-recently-used way the common
	// case, so it costs one compare and no reordering.
	if w := int(ord[0]); ch.tags[base+w] == t {
		if write {
			ch.dirty[base+w] = true
		}
		c.Hits++
		return true
	}
	for k := 1; k < c.ways; k++ {
		w := ord[k]
		if ch.tags[base+int(w)] == t {
			// Move the hit way to the front of the recency order.
			copy(ord[1:k+1], ord[:k])
			ord[0] = w
			if write {
				ch.dirty[base+int(w)] = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs addr's line, evicting the LRU way. It returns the evicted
// line address and whether it was dirty (for writeback accounting); evicted
// is 0 when the victim way was invalid.
func (c *Cache) Fill(addr uint64, write bool) (evicted uint64, wasDirty bool) {
	line := c.LineAddr(addr)
	set := c.setOf(line)
	ch := &c.chunks[set>>chunkSetsShift]
	if ch.tags == nil {
		ch.materialize(c.ways)
	}
	base := (set & (chunkSets - 1)) * c.ways
	ord := ch.order[base : base+c.ways]
	// Victim: the lowest-index invalid way if one exists, else the LRU way
	// at the tail of the recency order — the same choice the stamp-scan
	// formulation made (invalid ways are exactly the never-filled ones).
	victim := -1
	for w := 0; w < c.ways; w++ {
		if ch.tags[base+w] == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = int(ord[c.ways-1])
		evicted = ch.tags[base+victim] - 1
		wasDirty = ch.dirty[base+victim]
	}
	ch.tags[base+victim] = line + 1
	ch.dirty[base+victim] = write
	// Move the filled way to the front of the recency order.
	k := 0
	for int(ord[k]) != victim {
		k++
	}
	copy(ord[1:k+1], ord[:k])
	ord[0] = uint8(victim)
	return evicted, wasDirty
}

// Contains probes without updating any state (for tests and prefetch
// filtering).
func (c *Cache) Contains(addr uint64) bool {
	line := c.LineAddr(addr)
	set := c.setOf(line)
	ch := &c.chunks[set>>chunkSetsShift]
	if ch.tags == nil {
		return false
	}
	base := (set & (chunkSets - 1)) * c.ways
	for w := 0; w < c.ways; w++ {
		if ch.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// mshrSet models a finite pool of miss-status holding registers. Each
// in-flight line has a completion time; accesses to an in-flight line merge.
type mshrSet struct {
	inflight map[uint64]uint64 // line -> ready cycle
	slots    []uint64          // busy-until per MSHR
	// sweepAt is the inflight size above which reserve next drops
	// finished entries: twice the size the last sweep left, and at least
	// 4×MSHRs. Under a miss backlog most entries are unfinished, so a
	// sweep on every call would rescan them all for nothing.
	sweepAt int
}

func newMSHRSet(n int) *mshrSet {
	return &mshrSet{inflight: make(map[uint64]uint64), slots: make([]uint64, n), sweepAt: 4 * n}
}

// reserve finds when a new miss to line can start given MSHR availability,
// records it as in flight until ready, and returns the adjusted start time.
func (m *mshrSet) reserve(line, now, ready uint64) (start uint64, merged bool, mergedReady uint64) {
	if r, ok := m.inflight[line]; ok && r > now {
		return now, true, r
	}
	// Find the MSHR that frees earliest.
	best := 0
	for i, busy := range m.slots {
		if busy < m.slots[best] {
			best = i
		}
	}
	start = now
	if m.slots[best] > now {
		start = m.slots[best]
	}
	delta := start - now
	m.slots[best] = ready + delta
	m.inflight[line] = ready + delta
	// Drop finished entries to bound the map. How often this runs cannot
	// change a result: a hierarchy's accesses arrive in non-decreasing
	// cycle order, so an entry finished by now reads as absent above at
	// every later call, dropped or not.
	if len(m.inflight) > m.sweepAt {
		for l, r := range m.inflight {
			if r <= now {
				delete(m.inflight, l)
			}
		}
		m.sweepAt = max(4*len(m.slots), 2*len(m.inflight))
	}
	return start, false, 0
}

// Hierarchy is the full memory system. All latencies are cycle counts; an
// access at cycle `now` completes at the returned cycle.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	LLC *Cache

	cfg   config.Config
	mshrs *mshrSet
	pref  *StreamPrefetcher

	DemandMisses  uint64
	PrefetchFills uint64
}

// NewHierarchy builds the Table 1 memory system.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := &Hierarchy{
		L1I:   New(cfg.L1I),
		L1D:   New(cfg.L1D),
		L2:    New(cfg.L2),
		LLC:   New(cfg.LLC),
		cfg:   cfg,
		mshrs: newMSHRSet(cfg.MSHRs),
	}
	if cfg.StreamPrefetch {
		h.pref = NewStreamPrefetcher(8, 4)
	}
	return h
}

// AccessData performs a data access and returns its completion cycle.
func (h *Hierarchy) AccessData(addr uint64, write bool, now uint64) uint64 {
	lat := uint64(h.cfg.L1D.Latency)
	if h.L1D.Lookup(addr, write) {
		return now + lat
	}
	h.DemandMisses++
	line := h.L1D.LineAddr(addr)
	ready := now + h.missLatency(addr, write, now)
	start, merged, mr := h.mshrs.reserve(line, now, ready)
	if merged {
		if p := h.pref; p != nil {
			h.runPrefetch(addr, now)
		}
		return mr + lat
	}
	ready += start - now
	h.L1D.Fill(addr, write)
	if h.pref != nil {
		h.runPrefetch(addr, now)
	}
	return ready + lat
}

// missLatency walks the lower levels, filling on the way back, and returns
// the added latency beyond the L1 access.
func (h *Hierarchy) missLatency(addr uint64, write bool, now uint64) uint64 {
	if h.L2.Lookup(addr, false) {
		return uint64(h.cfg.L2.Latency)
	}
	h.L2.Fill(addr, false)
	if h.LLC.Lookup(addr, false) {
		return uint64(h.cfg.L2.Latency + h.cfg.LLC.Latency)
	}
	h.LLC.Fill(addr, false)
	return uint64(h.cfg.L2.Latency + h.cfg.LLC.Latency + h.cfg.MemLatency)
}

// runPrefetch trains the stream prefetcher on a demand miss and issues its
// prefetches into L2 (and L1D), modeling timely fills.
func (h *Hierarchy) runPrefetch(addr uint64, now uint64) {
	lines := h.pref.Train(h.L1D.LineAddr(addr), 1<<h.L1D.lineShift)
	for _, l := range lines {
		if !h.L2.Contains(l) {
			h.L2.Fill(l, false)
			if !h.LLC.Contains(l) {
				h.LLC.Fill(l, false)
			}
			h.PrefetchFills++
		}
		if !h.L1D.Contains(l) {
			h.L1D.Fill(l, false)
		}
	}
}

// AccessInst performs an instruction fetch access for the line containing
// addr and returns its completion cycle. The FDIP-style fetch-directed
// prefetcher is approximated by next-line prefetch on I-cache misses.
func (h *Hierarchy) AccessInst(addr uint64, now uint64) uint64 {
	lat := uint64(h.cfg.L1I.Latency)
	if h.L1I.Lookup(addr, false) {
		return now + lat
	}
	extra := h.missLatency(addr, false, now)
	h.L1I.Fill(addr, false)
	// Next-line instruction prefetch (FDIP approximation).
	next := h.L1I.LineAddr(addr) + uint64(1)<<h.L1I.lineShift
	if !h.L1I.Contains(next) {
		h.L1I.Fill(next, false)
		if !h.L2.Contains(next) {
			h.L2.Fill(next, false)
		}
	}
	return now + lat + extra
}

// StreamPrefetcher detects ascending or descending line streams within 4 KiB
// regions and prefetches `degree` lines ahead after `threshold` hits in the
// same direction.
type StreamPrefetcher struct {
	entries   []streamEntry
	degree    int
	threshold int
	scratch   []uint64 // reused Train output; valid until the next Train call
}

type streamEntry struct {
	page     uint64
	lastLine uint64
	dir      int64
	count    int
	valid    bool
}

// NewStreamPrefetcher creates a prefetcher tracking `streams` concurrent
// streams with the given prefetch degree.
func NewStreamPrefetcher(streams, degree int) *StreamPrefetcher {
	return &StreamPrefetcher{
		entries:   make([]streamEntry, streams),
		degree:    degree,
		threshold: 2,
	}
}

// Train observes a demand-missed line address and returns the line addresses
// to prefetch (possibly none). The returned slice is scratch storage owned by
// the prefetcher and is overwritten by the next Train call.
func (p *StreamPrefetcher) Train(line uint64, lineBytes uint64) []uint64 {
	page := line >> 12
	var victim *streamEntry
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.page == page {
			dir := int64(1)
			if line < e.lastLine {
				dir = -1
			}
			if line == e.lastLine {
				return nil
			}
			if dir == e.dir {
				e.count++
			} else {
				e.dir = dir
				e.count = 1
			}
			e.lastLine = line
			if e.count < p.threshold {
				return nil
			}
			out := p.scratch[:0]
			cur := line
			for i := 0; i < p.degree; i++ {
				cur = uint64(int64(cur) + e.dir*int64(lineBytes))
				out = append(out, cur)
			}
			p.scratch = out
			return out
		}
		if victim == nil || !e.valid {
			victim = e
		}
	}
	if victim == nil {
		victim = &p.entries[0]
	}
	*victim = streamEntry{page: page, lastLine: line, dir: 1, count: 1, valid: true}
	return nil
}
