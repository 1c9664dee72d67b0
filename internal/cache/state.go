package cache

// This file holds the warm-state side of sampled simulation for the memory
// hierarchy: functional touch entry points (TouchData, TouchInst) that apply
// the content side-effects of an access — lookup, miss-path fills down the
// hierarchy, prefetch training — without any timing, and CopyFrom, which
// hands every cache level's tag/dirty/recency state plus the stream
// prefetcher to a fresh detailed pipeline. MSHR state is deliberately NOT
// copied: its contents are absolute completion cycles, which are
// meaningless to a primed pipeline that restarts at cycle 0, so CopyFrom
// hands the new owner a fresh (empty) MSHR pool.

// copyFrom overwrites c's mutable state with src's, which must share the
// same geometry. Already-materialized destination chunks are reused.
func (c *Cache) copyFrom(src *Cache) {
	for i := range src.chunks {
		sch := &src.chunks[i]
		dch := &c.chunks[i]
		if sch.tags == nil {
			*dch = cacheChunk{}
			continue
		}
		if dch.tags == nil {
			dch.tags = make([]uint64, len(sch.tags))
			dch.dirty = make([]bool, len(sch.dirty))
			dch.order = make([]uint8, len(sch.order))
		}
		copy(dch.tags, sch.tags)
		copy(dch.dirty, sch.dirty)
		copy(dch.order, sch.order)
	}
	c.Hits, c.Misses = src.Hits, src.Misses
}

// CopyFrom overwrites h's warm state with src's, sharing no backing array
// with it. Both hierarchies must be built from the same config: the
// geometry is not copied. An untouched source chunk resets the destination
// chunk to untouched, so both materialize alike from then on. MSHRs are
// reset to empty (TestCopyFromCoversEveryField classifies every field).
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.copyFrom(src.L1I)
	h.L1D.copyFrom(src.L1D)
	h.L2.copyFrom(src.L2)
	h.LLC.copyFrom(src.LLC)
	if h.pref != nil {
		copy(h.pref.entries, src.pref.entries)
	}
	h.DemandMisses, h.PrefetchFills = src.DemandMisses, src.PrefetchFills
	h.mshrs = newMSHRSet(h.cfg.MSHRs)
}

// TouchData applies the content side-effects of a data access during
// functional fast-forward: lookup, and on a miss the fill walk down the
// hierarchy plus prefetcher training — everything AccessData does except
// MSHR booking and latency accounting.
func (h *Hierarchy) TouchData(addr uint64, write bool) {
	if h.L1D.Lookup(addr, write) {
		return
	}
	h.DemandMisses++
	h.missLatency(addr, write, 0)
	h.L1D.Fill(addr, write)
	if h.pref != nil {
		h.runPrefetch(addr, 0)
	}
}

// TouchInst applies the content side-effects of an instruction fetch during
// functional fast-forward, including the next-line I-prefetch.
func (h *Hierarchy) TouchInst(addr uint64) {
	if h.L1I.Lookup(addr, false) {
		return
	}
	h.missLatency(addr, false, 0)
	h.L1I.Fill(addr, false)
	next := h.L1I.LineAddr(addr) + uint64(1)<<h.L1I.lineShift
	if !h.L1I.Contains(next) {
		h.L1I.Fill(next, false)
		if !h.L2.Contains(next) {
			h.L2.Fill(next, false)
		}
	}
}
