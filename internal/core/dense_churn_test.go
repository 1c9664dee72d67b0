package core

import (
	"math/rand"
	"sync"
	"testing"

	"atr/internal/stats"
)

// TestLifeTabChurnNoAliasing hammers the dense lifetime store's free-list
// recycling against a shadow map: tens of thousands of put/get/take cycles
// over a handful of tags, with generations recycling fast enough that
// every arena node is reused many times and the inline lane spills and
// refills constantly. A recycled slot must never alias live state — a
// stale (tag, generation) lookup must miss exactly as the old map's
// composite keys did, and a live lookup must return the exact record that
// was stored, not a neighbor's. The structural invariants (free list
// disjoint from chains, no duplicate keys, count consistency) are checked
// throughout via the same check() the engine's CheckInvariants calls.
func TestLifeTabChurnNoAliasing(t *testing.T) {
	const (
		npregs = 8
		steps  = 50_000
	)
	rng := rand.New(rand.NewSource(0xA17))
	tab := newLifeTab(npregs)

	type key struct {
		tag PTag
		gen uint32
	}
	shadow := make(map[key]stats.RegLifetime)
	nextGen := make([]uint32, npregs) // per-tag generation counter, as bank.alloc keeps
	liveGens := make([][]uint32, npregs)
	retired := make([]key, 0, steps) // removed keys: must stay misses

	// unique builds a distinguishable record so aliasing (returning a
	// neighbor slot's record) is caught by value comparison, not just by
	// the ok flag.
	unique := func(tag PTag, gen uint32) stats.RegLifetime {
		return stats.RegLifetime{
			Renamed:   uint64(tag)<<32 | uint64(gen),
			Consumers: int(gen),
		}
	}

	for step := 0; step < steps; step++ {
		tag := PTag(rng.Intn(npregs))
		switch op := rng.Intn(10); {
		case op < 4: // put a fresh generation (the tag's new current allocation)
			nextGen[tag]++
			gen := nextGen[tag]
			tab.put(tag, gen, unique(tag, gen))
			shadow[key{tag, gen}] = unique(tag, gen)
			liveGens[tag] = append(liveGens[tag], gen)
		case op < 7: // take a random live generation of this tag
			if len(liveGens[tag]) == 0 {
				continue
			}
			i := rng.Intn(len(liveGens[tag]))
			gen := liveGens[tag][i]
			liveGens[tag] = append(liveGens[tag][:i], liveGens[tag][i+1:]...)
			k := key{tag, gen}
			got, ok := tab.take(tag, gen)
			if !ok {
				t.Fatalf("step %d: take(%d,%d) missed a live record", step, tag, gen)
			}
			if want := shadow[k]; got != want {
				t.Fatalf("step %d: take(%d,%d) = %+v, want %+v (slot aliased)", step, tag, gen, got, want)
			}
			delete(shadow, k)
			retired = append(retired, k)
		default: // probe: live gens must hit with their exact record, stale must miss
			for _, gen := range liveGens[tag] {
				p := tab.get(tag, gen)
				if p == nil {
					t.Fatalf("step %d: get(%d,%d) lost a live record", step, tag, gen)
				}
				if want := shadow[key{tag, gen}]; *p != want {
					t.Fatalf("step %d: get(%d,%d) = %+v, want %+v (slot aliased)", step, tag, gen, *p, want)
				}
			}
			if len(retired) > 0 {
				k := retired[rng.Intn(len(retired))]
				if p := tab.get(k.tag, k.gen); p != nil {
					t.Fatalf("step %d: stale get(%d,%d) hit %+v after removal", step, k.tag, k.gen, *p)
				}
			}
		}
		if step%4096 == 0 {
			if err := tab.check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}

	if err := tab.check(); err != nil {
		t.Fatal(err)
	}
	drained := 0
	tab.drain(func(*stats.RegLifetime) { drained++ })
	if drained != len(shadow) {
		t.Fatalf("drain visited %d records, shadow holds %d", drained, len(shadow))
	}
	if tab.n != 0 {
		t.Fatalf("count %d after drain, want 0", tab.n)
	}
	if err := tab.check(); err != nil {
		t.Fatalf("post-drain: %v", err)
	}
}

// TestDenseTabsChurnParallel runs independent engines' worth of dense-tab
// churn on concurrent goroutines. The tables are engine-private by design;
// under -race this proves the arenas share no hidden package state, which
// is what lets the sweep engine run units and lockstep lanes on plain
// goroutines without synchronization.
func TestDenseTabsChurnParallel(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tab := newLifeTab(4)
			gen := make([]uint32, 4)
			live := make([][]uint32, 4)
			for step := 0; step < 20_000; step++ {
				tag := PTag(rng.Intn(4))
				if rng.Intn(2) == 0 {
					gen[tag]++
					tab.put(tag, gen[tag], stats.RegLifetime{Renamed: uint64(gen[tag])})
					live[tag] = append(live[tag], gen[tag])
				} else if n := len(live[tag]); n > 0 {
					i := rng.Intn(n)
					g := live[tag][i]
					live[tag] = append(live[tag][:i], live[tag][i+1:]...)
					if _, ok := tab.take(tag, g); !ok {
						t.Errorf("seed %d: take(%d,%d) missed", seed, tag, g)
						return
					}
				}
			}
			if err := tab.check(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(int64(w + 1))
	}
	wg.Wait()
}
