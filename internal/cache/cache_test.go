package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atr/internal/config"
)

func smallCacheConfig() config.CacheConfig {
	return config.CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 3}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := New(smallCacheConfig())
	if c.Lookup(0x100, false) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100, false) {
		t.Error("filled line should hit")
	}
	if !c.Lookup(0x13F, false) {
		t.Error("same line (different offset) should hit")
	}
	if c.Lookup(0x140, false) {
		t.Error("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(smallCacheConfig()) // 8 sets, 2 ways
	// Three lines mapping to the same set: line size 64, sets 8 -> set
	// stride 512.
	a, b, d := uint64(0x0), uint64(0x200), uint64(0x400)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // refresh a: b is now LRU
	ev, _ := c.Fill(d, false)
	if ev != b {
		t.Errorf("evicted %#x, want %#x (LRU)", ev, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("wrong residency after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := New(smallCacheConfig())
	c.Fill(0x0, true) // dirty fill
	c.Fill(0x200, false)
	ev, dirty := c.Fill(0x400, false)
	if ev != 0x0 || !dirty {
		t.Errorf("evicted %#x dirty=%v, want 0x0 dirty", ev, dirty)
	}
}

func TestCacheWriteMarksDirtyOnHit(t *testing.T) {
	c := New(smallCacheConfig())
	c.Fill(0x0, false)
	c.Lookup(0x0, true) // write hit marks dirty
	c.Fill(0x200, false)
	_, dirty := c.Fill(0x400, false)
	if !dirty {
		t.Error("write-hit line should evict dirty")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := config.GoldenCove()
	h := NewHierarchy(cfg)
	// Cold access: full miss path.
	done := h.AccessData(0x1000, false, 100)
	wantCold := uint64(100 + cfg.L1D.Latency + cfg.L2.Latency + cfg.LLC.Latency + cfg.MemLatency)
	if done != wantCold {
		t.Errorf("cold access done = %d, want %d", done, wantCold)
	}
	// Hot access: L1 hit.
	done = h.AccessData(0x1000, false, 1000)
	if done != 1000+uint64(cfg.L1D.Latency) {
		t.Errorf("hot access done = %d, want %d", done, 1000+uint64(cfg.L1D.Latency))
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := config.GoldenCove()
	cfg.StreamPrefetch = false
	h := NewHierarchy(cfg)
	h.AccessData(0x1000, false, 0) // install everywhere
	// Evict from tiny L1 by filling its set; L1D is 48KiB/12-way ->
	// 64 sets, set stride = 64 sets * 64B = 4096.
	for i := 1; i <= 12; i++ {
		h.AccessData(0x1000+uint64(i)*4096, false, uint64(i*1000))
	}
	done := h.AccessData(0x1000, false, 100000)
	want := uint64(100000 + cfg.L1D.Latency + cfg.L2.Latency)
	if done != want {
		t.Errorf("L2 hit done = %d, want %d", done, want)
	}
}

func TestHierarchyInstAccess(t *testing.T) {
	cfg := config.GoldenCove()
	h := NewHierarchy(cfg)
	d1 := h.AccessInst(0x40, 0)
	if d1 <= uint64(cfg.L1I.Latency) {
		t.Errorf("cold inst fetch too fast: %d", d1)
	}
	d2 := h.AccessInst(0x40, 500)
	if d2 != 500+uint64(cfg.L1I.Latency) {
		t.Errorf("warm inst fetch = %d", d2)
	}
	// Next-line prefetch: the following line should now be warm.
	d3 := h.AccessInst(0x80, 600)
	if d3 != 600+uint64(cfg.L1I.Latency) {
		t.Errorf("next-line prefetched fetch = %d, want L1 hit", d3)
	}
}

func TestMSHRMerging(t *testing.T) {
	cfg := config.GoldenCove()
	cfg.StreamPrefetch = false
	h := NewHierarchy(cfg)
	d1 := h.AccessData(0x5000, false, 100)
	// Second access to the same line while the miss is outstanding
	// merges: it completes when the first fill arrives (plus L1 latency),
	// not after a second full memory trip.
	d2 := h.AccessData(0x5040-0x40, false, 110) // same line
	if d2 > d1+uint64(cfg.L1D.Latency) {
		t.Errorf("merged access done = %d, first = %d", d2, d1)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := config.GoldenCove()
	cfg.StreamPrefetch = false
	cfg.MSHRs = 1
	h := NewHierarchy(cfg)
	d1 := h.AccessData(0x10000, false, 0)
	d2 := h.AccessData(0x20000, false, 0) // different line, MSHR occupied
	if d2 <= d1 {
		t.Errorf("second miss with 1 MSHR should serialize: d1=%d d2=%d", d1, d2)
	}
}

// refMSHR is mshrSet.reserve as it was before its sweeps were amortized:
// once the map holds more than 4×MSHRs entries, every call rescans it for
// finished entries. It is the reference the amortized sweep must match.
type refMSHR struct {
	inflight map[uint64]uint64
	slots    []uint64
}

func (m *refMSHR) reserve(line, now, ready uint64) (start uint64, merged bool, mergedReady uint64) {
	if r, ok := m.inflight[line]; ok && r > now {
		return now, true, r
	}
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
	if len(m.inflight) > 4*len(m.slots) {
		for l, r := range m.inflight {
			if r <= now {
				delete(m.inflight, l)
			}
		}
	}
	return start, false, 0
}

// TestMSHRSweepMatchesReference replays a one-miss-per-cycle backlog —
// more misses than the MSHRs can retire, so unfinished entries pile up —
// with repeats of recent lines (merges, and stale entries that must read
// as absent) and idle gaps that let the backlog drain. Every reserve must
// return exactly what the sweep-every-call reference returns.
func TestMSHRSweepMatchesReference(t *testing.T) {
	const mshrs = 8
	m := newMSHRSet(mshrs)
	ref := &refMSHR{inflight: make(map[uint64]uint64), slots: make([]uint64, mshrs)}
	rng := rand.New(rand.NewSource(0x5EED))
	var recent [64]uint64
	next := uint64(1)
	now := uint64(0)
	peak, merges, stale := 0, 0, 0
	for i := 0; i < 30_000; i++ {
		now++
		if rng.Intn(5000) == 0 {
			now += uint64(rng.Intn(200_000)) // idle gap: the backlog drains
		}
		line := next
		if rng.Intn(4) == 0 {
			line = recent[rng.Intn(len(recent))]
		} else {
			next++
			recent[i%len(recent)] = line
		}
		ready := now + 20 + uint64(rng.Intn(300))
		if r, ok := m.inflight[line]; ok && r <= now {
			stale++
		}
		gs, gm, gr := m.reserve(line, now, ready)
		ws, wm, wr := ref.reserve(line, now, ready)
		if gs != ws || gm != wm || gr != wr {
			t.Fatalf("miss %d (line %d, now %d): reserve = (%d, %v, %d), reference (%d, %v, %d)",
				i, line, now, gs, gm, gr, ws, wm, wr)
		}
		peak = max(peak, len(m.inflight))
		if gm {
			merges++
		}
	}
	if peak <= 4*mshrs || merges == 0 || stale == 0 {
		t.Fatalf("replay too gentle: peak map %d (floor %d), %d merges, %d stale lookups", peak, 4*mshrs, merges, stale)
	}
	t.Logf("peak map %d, %d merges, %d stale lookups", peak, merges, stale)
}

func TestStreamPrefetcherAscending(t *testing.T) {
	p := NewStreamPrefetcher(4, 2)
	if got := p.Train(0x1000, 64); got != nil {
		t.Errorf("first touch should not prefetch: %v", got)
	}
	if got := p.Train(0x1040, 64); len(got) != 2 || got[0] != 0x1080 || got[1] != 0x10C0 {
		t.Errorf("ascending stream prefetch = %#v", got)
	}
}

func TestStreamPrefetcherDescending(t *testing.T) {
	p := NewStreamPrefetcher(4, 1)
	p.Train(0x2100, 64)
	p.Train(0x20C0, 64)
	got := p.Train(0x2080, 64)
	if len(got) != 1 || got[0] != 0x2040 {
		t.Errorf("descending prefetch = %#v", got)
	}
}

func TestStreamPrefetcherSeparatePages(t *testing.T) {
	p := NewStreamPrefetcher(4, 1)
	p.Train(0x1000, 64)
	p.Train(0x99000, 64) // different page: separate stream
	if got := p.Train(0x1040, 64); got == nil {
		t.Error("stream in first page should survive an unrelated page touch")
	}
}

func TestHierarchyPrefetchImprovesStride(t *testing.T) {
	cfg := config.GoldenCove()
	h1 := NewHierarchy(cfg)
	cfg2 := cfg
	cfg2.StreamPrefetch = false
	h2 := NewHierarchy(cfg2)
	var with, without uint64
	now := uint64(0)
	for i := uint64(0); i < 64; i++ {
		addr := 0x100000 + i*64
		with += h1.AccessData(addr, false, now) - now
		without += h2.AccessData(addr, false, now) - now
		now += 500
	}
	if with >= without {
		t.Errorf("prefetching did not help stride: with=%d without=%d", with, without)
	}
}

// Property: Fill then Lookup always hits; an address never filled never hits
// in a fresh cache.
func TestCacheFillLookupProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(smallCacheConfig())
		for _, a := range addrs {
			c.Fill(uint64(a), false)
			if !c.Lookup(uint64(a), false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cache never holds more lines than its capacity.
func TestCacheCapacityProperty(t *testing.T) {
	cfg := smallCacheConfig() // 16 lines
	f := func(addrs []uint16) bool {
		c := New(cfg)
		filled := make(map[uint64]bool)
		for _, a := range addrs {
			c.Fill(uint64(a), false)
			filled[c.LineAddr(uint64(a))] = true
		}
		resident := 0
		for l := range filled {
			if c.Contains(l) {
				resident++
			}
		}
		return resident <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stampCache is the original timestamp-based LRU formulation, retained as a
// reference model: every line carries a last-use stamp, hits scan all ways,
// and the victim is the lowest-index invalid way or else the minimum-stamp
// way. The production Cache replaces this with a per-set recency order and
// an MRU fast path; TestCacheMatchesStampReference proves the two produce
// identical hit/miss streams, evictions, and writeback flags.
type stampCache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64
	lru       []uint64
	dirty     []bool
	stamp     uint64

	hits   uint64
	misses uint64
}

func newStampCache(cfg config.CacheConfig) *stampCache {
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	sets := cfg.Sets()
	return &stampCache{
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: shift,
		tags:      make([]uint64, sets*cfg.Ways),
		lru:       make([]uint64, sets*cfg.Ways),
		dirty:     make([]bool, sets*cfg.Ways),
	}
}

func (c *stampCache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

func (c *stampCache) setOf(line uint64) int {
	return int((line >> c.lineShift) % uint64(c.sets))
}

func (c *stampCache) lookup(addr uint64, write bool) bool {
	line := c.lineAddr(addr)
	base := c.setOf(line) * c.ways
	c.stamp++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			c.lru[base+w] = c.stamp
			if write {
				c.dirty[base+w] = true
			}
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

func (c *stampCache) fill(addr uint64, write bool) (evicted uint64, wasDirty bool) {
	line := c.lineAddr(addr)
	base := c.setOf(line) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	if c.tags[victim] != 0 {
		evicted = c.tags[victim] - 1
		wasDirty = c.dirty[victim]
	}
	c.stamp++
	c.tags[victim] = line + 1
	c.lru[victim] = c.stamp
	c.dirty[victim] = write
	return evicted, wasDirty
}

func (c *stampCache) contains(addr uint64) bool {
	line := c.lineAddr(addr)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// Property: the recency-order cache is observably identical to the
// timestamp reference across a random mixed stream of lookups, miss-driven
// fills, and read-only probes — on every op, not just at the end.
func TestCacheMatchesStampReference(t *testing.T) {
	for _, cfg := range []config.CacheConfig{
		smallCacheConfig(), // 8 sets, 2 ways
		{SizeBytes: 2048, Ways: 4, LineBytes: 64, Latency: 3},
		{SizeBytes: 4096, Ways: 8, LineBytes: 32, Latency: 3},
		{SizeBytes: 512, Ways: 1, LineBytes: 64, Latency: 1}, // direct-mapped
	} {
		f := func(ops []uint16) bool {
			c := New(cfg)
			ref := newStampCache(cfg)
			for _, op := range ops {
				// Low bits pick the address (a handful of sets' worth so
				// conflicts are common), top bits pick the operation.
				addr := uint64(op & 0x3FF)
				write := op&0x400 != 0
				switch {
				case op&0x8000 != 0: // read-only probe
					if c.Contains(addr) != ref.contains(addr) {
						return false
					}
				default: // demand access: lookup, fill on miss
					hit := c.Lookup(addr, write)
					if hit != ref.lookup(addr, write) {
						return false
					}
					if !hit {
						ev, d := c.Fill(addr, write)
						rev, rd := ref.fill(addr, write)
						if ev != rev || d != rd {
							return false
						}
					}
				}
			}
			return c.Hits == ref.hits && c.Misses == ref.misses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("ways=%d: %v", cfg.Ways, err)
		}
	}
}

func TestHitRate(t *testing.T) {
	c := New(smallCacheConfig())
	c.Lookup(0, false) // miss
	c.Fill(0, false)
	c.Lookup(0, false) // hit
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
}
