package sweep

import (
	"container/list"
	"sync"

	"atr/internal/program"
	"atr/internal/workload"
)

// programsCap bounds a program cache. The job service resolves any litmus
// interleaving by name, so the set of profile names it may see has no
// bound of its own.
const programsCap = 4096

// Programs is the shared program cache: each profile's program is
// generated at most once while it stays resident, and every run of that
// profile shares the image. Programs are immutable code images, so
// concurrent runs share them freely, and an image evicted while a run
// still holds it stays valid; the next request regenerates an identical
// one. It holds at most 4,096 images, evicting the least recently used.
// The zero value is ready to use.
type Programs struct {
	max int // resident bound; 0 selects programsCap

	mu   sync.Mutex
	m    map[string]*progEntry
	lru  list.List // of *progEntry; front = most recently used
	hits uint64
}

type progEntry struct {
	name string
	once sync.Once
	prog *program.Program
	elem *list.Element
}

// Get returns p's program, generating it on first use.
func (c *Programs) Get(p workload.Profile) *program.Program {
	c.mu.Lock()
	e, ok := c.m[p.Name]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		if c.m == nil {
			c.m = make(map[string]*progEntry)
		}
		e = &progEntry{name: p.Name}
		e.elem = c.lru.PushFront(e)
		c.m[p.Name] = e
		max := c.max
		if max <= 0 {
			max = programsCap
		}
		for c.lru.Len() > max {
			delete(c.m, c.lru.Remove(c.lru.Back()).(*progEntry).name)
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prog = p.Generate() })
	return e.prog
}

// Stats reports the cache's cumulative hits (an image reused instead of
// generated) and the number of resident images.
func (c *Programs) Stats() (hits uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, len(c.m)
}
