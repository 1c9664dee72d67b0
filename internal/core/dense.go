package core

import (
	"fmt"

	"atr/internal/isa"
	"atr/internal/stats"
)

// This file holds the dense, allocation-keyed side tables that replaced the
// engine's three hot maps (lives, claims, earlyReleased). Profiling showed
// the maps — keyed by Alloc / (Alloc, arch reg) structs and touched several
// times per simulated instruction — cost ~30% of sweep runtime in hashing
// alone. Each table is now a structure-of-arrays store indexed by physical
// register tag: a per-tag chain head plus one contiguous node arena with an
// index free list, so the common lookup is one slice index and one
// generation compare on adjacent memory. Chains exist because a record can
// outlive its allocation (an early-released tag is re-allocated while the
// old allocation's lifetime record waits for its redefiner to commit), but
// they are almost always one node long. Nodes recycle through the free
// list, so steady state performs no allocation; generation tags make stale
// lookups miss exactly as the map's composite keys did.

// lifeNode is one spilled register lifetime, chained per tag.
type lifeNode struct {
	gen  uint32
	next int32
	rec  stats.RegLifetime
}

// lifeTab stores the live RegLifetime records of one register class, keyed
// by (tag, generation). The current generation of each tag — the one the
// rename/consume/complete hot path touches — lives in a fixed inline lane
// (inGen/inRec, indexed directly by tag); only displaced records (an
// early-released tag re-allocated while the old allocation's record still
// waits for its redefiner to commit) spill to the chain arena. Generation 0
// is never allocated (bank.alloc pre-increments), so inGen[tag] == 0 marks
// an empty inline slot.
type lifeTab struct {
	inGen []uint32            // per tag; 0 = empty
	inRec []stats.RegLifetime // per tag, valid when inGen[tag] != 0
	head  []int32             // spill chains per tag; -1 terminates
	nodes []lifeNode
	free  []int32
	n     int
}

func newLifeTab(npregs int) lifeTab {
	head := make([]int32, npregs)
	for i := range head {
		head[i] = -1
	}
	return lifeTab{
		inGen: make([]uint32, npregs),
		inRec: make([]stats.RegLifetime, npregs),
		head:  head,
	}
}

// get returns the record for (tag, gen), or nil. The pointer is valid only
// until the next put (a spilled record moves, and the arena may grow);
// callers use it statement-locally.
func (t *lifeTab) get(tag PTag, gen uint32) *stats.RegLifetime {
	if t.inGen[tag] == gen {
		return &t.inRec[tag]
	}
	for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
		if t.nodes[i].gen == gen {
			return &t.nodes[i].rec
		}
	}
	return nil
}

// spill pushes a record onto tag's overflow chain (count unchanged).
func (t *lifeTab) spill(tag PTag, gen uint32, rec stats.RegLifetime) {
	var i int32
	if n := len(t.free) - 1; n >= 0 {
		i = t.free[n]
		t.free = t.free[:n]
	} else {
		t.nodes = append(t.nodes, lifeNode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = lifeNode{gen: gen, next: t.head[tag], rec: rec}
	t.head[tag] = i
}

// put inserts a fresh record for (tag, gen), gen >= 1. The caller
// guarantees the key is absent (each allocation's record is created exactly
// once, at rename). A new allocation is always the tag's current
// generation, so it takes the inline slot, displacing any older record —
// which by definition is just waiting for its redefiner to commit — to the
// spill chain.
func (t *lifeTab) put(tag PTag, gen uint32, rec stats.RegLifetime) {
	if g := t.inGen[tag]; g != 0 {
		t.spill(tag, g, t.inRec[tag])
	}
	t.inGen[tag] = gen
	t.inRec[tag] = rec
	t.n++
}

// take removes the record for (tag, gen), returning it by value.
func (t *lifeTab) take(tag PTag, gen uint32) (stats.RegLifetime, bool) {
	if t.inGen[tag] == gen {
		rec := t.inRec[tag]
		t.inGen[tag] = 0
		t.inRec[tag] = stats.RegLifetime{}
		t.n--
		return rec, true
	}
	prev := int32(-1)
	for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
		if t.nodes[i].gen == gen {
			if prev < 0 {
				t.head[tag] = t.nodes[i].next
			} else {
				t.nodes[prev].next = t.nodes[i].next
			}
			rec := t.nodes[i].rec
			t.nodes[i] = lifeNode{next: -1}
			t.free = append(t.free, i)
			t.n--
			return rec, true
		}
		prev = i
	}
	return stats.RegLifetime{}, false
}

// drain removes every record, calling fn for each. Record order across tags
// is ascending tag, inline before spills; the ledger's accumulation is
// order-insensitive sums, so this cannot perturb results relative to the
// old map iteration.
func (t *lifeTab) drain(fn func(*stats.RegLifetime)) {
	for tag := range t.head {
		if t.inGen[tag] != 0 {
			fn(&t.inRec[tag])
			t.inGen[tag] = 0
			t.inRec[tag] = stats.RegLifetime{}
			t.n--
		}
		for i := t.head[tag]; i >= 0; {
			next := t.nodes[i].next
			fn(&t.nodes[i].rec)
			t.nodes[i] = lifeNode{next: -1}
			t.free = append(t.free, i)
			t.n--
			i = next
		}
		t.head[tag] = -1
	}
}

// claimNode is one open ATR claim record, keyed per mapping: the claimed
// previous allocation's generation plus the redefiner's architectural
// register (move elimination lets several arch regs share one tag).
type claimNode struct {
	gen  uint32
	reg  isa.Reg
	next int32
	cs   claimState
}

// claimTab stores claimState per mapping for one register class.
type claimTab struct {
	head  []int32
	nodes []claimNode
	free  []int32
	n     int
}

func newClaimTab(npregs int) claimTab {
	head := make([]int32, npregs)
	for i := range head {
		head[i] = -1
	}
	return claimTab{head: head}
}

func (t *claimTab) find(tag PTag, gen uint32, reg isa.Reg) int32 {
	for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
		if t.nodes[i].gen == gen && t.nodes[i].reg == reg {
			return i
		}
	}
	return -1
}

// ref returns a mutable pointer to one mapping's claim state, or nil. The
// pointer is valid only until the next set (the arena may grow); callers
// use it statement-locally.
func (t *claimTab) ref(tag PTag, gen uint32, reg isa.Reg) *claimState {
	if i := t.find(tag, gen, reg); i >= 0 {
		return &t.nodes[i].cs
	}
	return nil
}

// set upserts the claim state of one mapping (map-assignment semantics).
func (t *claimTab) set(tag PTag, gen uint32, reg isa.Reg, cs claimState) {
	if i := t.find(tag, gen, reg); i >= 0 {
		t.nodes[i].cs = cs
		return
	}
	var i int32
	if n := len(t.free) - 1; n >= 0 {
		i = t.free[n]
		t.free = t.free[:n]
	} else {
		t.nodes = append(t.nodes, claimNode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = claimNode{gen: gen, reg: reg, next: t.head[tag], cs: cs}
	t.head[tag] = i
	t.n++
}

// take removes one mapping's claim record, returning it by value (the
// map's load-and-delete idiom).
func (t *claimTab) take(tag PTag, gen uint32, reg isa.Reg) (claimState, bool) {
	prev := int32(-1)
	for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
		if t.nodes[i].gen == gen && t.nodes[i].reg == reg {
			if prev < 0 {
				t.head[tag] = t.nodes[i].next
			} else {
				t.nodes[prev].next = t.nodes[i].next
			}
			cs := t.nodes[i].cs
			t.nodes[i] = claimNode{next: -1}
			t.free = append(t.free, i)
			t.n--
			return cs, true
		}
		prev = i
	}
	return claimState{}, false
}

// markNode is one early-release marker (set membership only).
type markNode struct {
	gen  uint32
	reg  isa.Reg
	next int32
}

// markTab is the dense replacement of the earlyReleased set: mappings whose
// physical-register reference was already dropped by ATR or nonspec-ER, so
// commit and flush reclamation must skip them exactly once each. It is a
// multiset: under move elimination two mappings can share a key (an arch
// register mapped to the same allocation twice, say by a repeated
// `mov r1, r4`, while the first mapping's redefiner is still in flight), and
// each early-dropped reference needs its own mark. Deduplicating them would
// let the second redefiner's commit drop the reference again and free the
// register while it is still mapped.
type markTab struct {
	head  []int32
	nodes []markNode
	free  []int32
	n     int
}

func newMarkTab(npregs int) markTab {
	head := make([]int32, npregs)
	for i := range head {
		head[i] = -1
	}
	return markTab{head: head}
}

// add inserts one mark for the mapping, even if it already holds one.
func (t *markTab) add(tag PTag, gen uint32, reg isa.Reg) {
	var i int32
	if n := len(t.free) - 1; n >= 0 {
		i = t.free[n]
		t.free = t.free[:n]
	} else {
		t.nodes = append(t.nodes, markNode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = markNode{gen: gen, reg: reg, next: t.head[tag]}
	t.head[tag] = i
	t.n++
}

// takeOne removes one mark for the mapping if present, reporting whether
// there was one.
func (t *markTab) takeOne(tag PTag, gen uint32, reg isa.Reg) bool {
	prev := int32(-1)
	for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
		if t.nodes[i].gen == gen && t.nodes[i].reg == reg {
			if prev < 0 {
				t.head[tag] = t.nodes[i].next
			} else {
				t.nodes[prev].next = t.nodes[i].next
			}
			t.nodes[i] = markNode{next: -1}
			t.free = append(t.free, i)
			t.n--
			return true
		}
		prev = i
	}
	return false
}

// checkTab validates one chain store's arena accounting: every arena slot
// is reachable from exactly one chain or the free list, chains contain no
// duplicate keys (unless sameKey is nil), and the live count matches. The
// churn tests run it after heavy recycling to prove slot reuse never
// aliases live state.
func checkTab(name string, nNodes int, heads []int32, free []int32, n int,
	next func(int32) int32, sameKey func(a, b int32) bool) error {
	seen := make([]bool, nNodes)
	live := 0
	for tag, h := range heads {
		var chain []int32
		for i := h; i >= 0; i = next(i) {
			if int(i) >= nNodes {
				return fmt.Errorf("core: %s tag %d chain index %d out of range", name, tag, i)
			}
			if seen[i] {
				return fmt.Errorf("core: %s node %d reachable twice", name, i)
			}
			seen[i] = true
			for _, j := range chain {
				if sameKey != nil && sameKey(i, j) {
					return fmt.Errorf("core: %s tag %d has duplicate key in chain", name, tag)
				}
			}
			chain = append(chain, i)
			live++
		}
	}
	if live != n {
		return fmt.Errorf("core: %s live count %d, counter says %d", name, live, n)
	}
	for _, i := range free {
		if int(i) >= nNodes {
			return fmt.Errorf("core: %s free index %d out of range", name, i)
		}
		if seen[i] {
			return fmt.Errorf("core: %s node %d both live and free", name, i)
		}
		seen[i] = true
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("core: %s node %d leaked (neither live nor free)", name, i)
		}
	}
	return nil
}

func (t *lifeTab) check() error {
	inline := 0
	for tag := range t.inGen {
		if t.inGen[tag] == 0 {
			continue
		}
		inline++
		for i := t.head[tag]; i >= 0; i = t.nodes[i].next {
			if t.nodes[i].gen == t.inGen[tag] {
				return fmt.Errorf("core: lifeTab tag %d generation %d both inline and spilled", tag, t.inGen[tag])
			}
		}
	}
	return checkTab("lifeTab", len(t.nodes), t.head, t.free, t.n-inline,
		func(i int32) int32 { return t.nodes[i].next },
		func(a, b int32) bool { return t.nodes[a].gen == t.nodes[b].gen })
}

func (t *claimTab) check() error {
	return checkTab("claimTab", len(t.nodes), t.head, t.free, t.n,
		func(i int32) int32 { return t.nodes[i].next },
		func(a, b int32) bool {
			return t.nodes[a].gen == t.nodes[b].gen && t.nodes[a].reg == t.nodes[b].reg
		})
}

func (t *markTab) check() error {
	return checkTab("markTab", len(t.nodes), t.head, t.free, t.n,
		func(i int32) int32 { return t.nodes[i].next }, nil)
}
