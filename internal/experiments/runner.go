// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figs 1, 4, 6, 10–15 and the §4.4 synthesis numbers) on
// the synthetic SPEC2017-like workloads. Each experiment prints the same
// rows/series the paper reports, side by side with the paper's published
// values where the paper gives a number.
package experiments

import (
	"container/list"
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/power"
	"atr/internal/program"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// RunStats is everything an experiment needs from one simulation.
type RunStats struct {
	pipeline.Result

	// Fig 4 state split.
	InUse, Unused, Verified float64
	// Fig 6 region ratios (GPR class, cumulative as in the paper).
	NonBranch, NonExcept, Atomic float64
	// Fig 14 event gaps (cycles, atomic regions).
	GapRedefine, GapConsume, GapCommit float64
	// Fig 12 consumer-count fractions for atomic regions; index 7 holds
	// seven-or-more.
	ConsumerFrac [8]float64

	// Scheme accounting.
	ATRReleases, ERReleases, CommitReleases uint64

	Activity power.Activity
	Power    power.Power

	// Samples is the interval time series, populated when the runner's
	// SampleInterval is non-zero.
	Samples []obs.Sample
}

// DefaultCacheCap bounds the runner's memoized-result and program caches
// when CacheCap is unset. It is deliberately generous — an uncapped
// interactive sweep never notices it — while keeping a long-lived daemon
// that sees many distinct configs from growing without bound.
const DefaultCacheCap = 4096

// Runner executes simulations in parallel with memoization: experiments
// share identical (profile, config) runs.
type Runner struct {
	// Instr is the per-run instruction budget.
	Instr uint64

	// SampleInterval, when non-zero, attaches an interval sampler (one per
	// simulation, so parallel runs never share observer state) and returns
	// the series in RunStats.Samples. Set it before the first Run.
	SampleInterval uint64

	// Workers bounds Prefetch's concurrency (<= 0 selects GOMAXPROCS).
	// Set it before the first Prefetch.
	Workers int

	// CacheCap bounds the memoized-result and generated-program caches
	// (entries, LRU eviction; <= 0 selects DefaultCacheCap). Eviction is
	// invisible to callers beyond re-execution cost: simulations are
	// deterministic, so a re-run of an evicted key returns identical
	// stats. Set it before the first Run.
	CacheCap int

	// Prefetch concurrency accounting: inFlight is the number of pool
	// tasks (one run each) currently executing, maxInFlight its
	// high-water mark. TestPrefetchWorkerBound pins Prefetch to the
	// worker bound with it.
	inFlight    atomic.Int64
	maxInFlight atomic.Int64

	mu        sync.Mutex
	res       map[string]*resEntry
	lru       *list.List // of string keys; front = most recently used
	hits      uint64
	evictions uint64
	sem       chan struct{}

	// Shared immutable program cache: p.Generate() runs once per profile
	// (not once per profile×config). Programs are static code images the
	// pipeline never mutates, so concurrent runs share them freely. Like
	// res it is LRU-bounded by CacheCap; an evicted program still held by
	// a running simulation stays valid (immutability), the next request
	// just regenerates it.
	progMu   sync.Mutex
	progs    map[string]*progEntry
	progLRU  *list.List
	progHits uint64

	// Aggregate totals over unique (non-memoized) simulations, for sweep
	// throughput accounting; guarded by mu.
	nRuns       int
	totalInstr  uint64
	totalCycles uint64
}

// resEntry is one memoized run. Callers hold the entry pointer across the
// once, so evicting the key from the maps cannot yank a result out from
// under a waiter — eviction only forgets, it never invalidates.
type resEntry struct {
	once  sync.Once
	stats RunStats
	elem  *list.Element
}

type progEntry struct {
	once sync.Once
	prog *program.Program
	elem *list.Element
}

// NewRunner creates a runner with the given per-run instruction budget.
func NewRunner(instr uint64) *Runner {
	if instr == 0 {
		instr = 40_000
	}
	return &Runner{
		Instr:   instr,
		res:     make(map[string]*resEntry),
		lru:     list.New(),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		progs:   make(map[string]*progEntry),
		progLRU: list.New(),
	}
}

// cap returns the effective cache bound.
func (r *Runner) cap() int {
	if r.CacheCap > 0 {
		return r.CacheCap
	}
	return DefaultCacheCap
}

// key identifies one memoized run. It is the sweep engine's canonical
// memoization key (profile name plus the %+v rendering of the config), so
// every Config field — including ones added in the future — participates
// and cannot silently alias two different runs, and so sweep journals are
// keyed identically to the runner's cache
// (TestKeyCoversEveryConfigField enforces the coverage by reflection).
func key(p workload.Profile, cfg config.Config) string {
	return sweep.MemoKey(p, cfg)
}

// Program returns p's generated program, shared across every run of the
// same profile. The program is generated at most once per cache residency;
// callers must treat it as read-only (program.Program is an immutable code
// image), which is also what makes LRU eviction safe — a caller still
// holding an evicted program keeps a valid image.
func (r *Runner) Program(p workload.Profile) *program.Program {
	r.progMu.Lock()
	e, ok := r.progs[p.Name]
	if ok {
		r.progHits++
		r.progLRU.MoveToFront(e.elem)
	} else {
		e = &progEntry{}
		e.elem = r.progLRU.PushFront(p.Name)
		r.progs[p.Name] = e
		for r.progLRU.Len() > r.cap() {
			back := r.progLRU.Back()
			if back == e.elem {
				break // never evict the entry being inserted
			}
			delete(r.progs, back.Value.(string))
			r.progLRU.Remove(back)
		}
	}
	r.progMu.Unlock()
	e.once.Do(func() { e.prog = p.Generate() })
	return e.prog
}

// Run simulates profile p under cfg (memoized, LRU-bounded by CacheCap).
func (r *Runner) Run(p workload.Profile, cfg config.Config) RunStats {
	k := key(p, cfg)
	r.mu.Lock()
	e, ok := r.res[k]
	if ok {
		r.hits++
		if e.elem != nil {
			r.lru.MoveToFront(e.elem)
		}
	} else {
		e = &resEntry{}
		e.elem = r.lru.PushFront(k)
		r.res[k] = e
		r.evictLocked(e)
	}
	r.mu.Unlock()

	e.once.Do(func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		e.stats = simulate(r.Program(p), cfg, r.Instr, r.SampleInterval)
		r.account(&e.stats)
	})
	return e.stats
}

// account folds one unique (non-memoized) simulation into the sweep
// throughput totals.
func (r *Runner) account(st *RunStats) {
	r.mu.Lock()
	r.nRuns++
	r.totalInstr += st.Committed
	r.totalCycles += st.Cycles
	r.mu.Unlock()
}

// evictLocked trims the result cache to CacheCap, sparing keep (the entry
// being inserted). Caller holds r.mu.
func (r *Runner) evictLocked(keep *resEntry) {
	for r.lru.Len() > r.cap() {
		back := r.lru.Back()
		k := back.Value.(string)
		victim := r.res[k]
		if victim == keep {
			break
		}
		r.lru.Remove(back)
		victim.elem = nil
		delete(r.res, k)
		r.evictions++
	}
}

// CacheStats reports memo-cache effectiveness: cumulative hits and
// evictions, and the current number of resident results.
func (r *Runner) CacheStats() (hits, evictions uint64, size int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.evictions, len(r.res)
}

// ProgramCacheStats reports shared-program-cache effectiveness: cumulative
// hits (a profile's image reused instead of regenerated) and the current
// number of resident programs. It exists for the daemon's telemetry
// registry; like CacheStats the read is a monitoring snapshot, not a
// synchronization point.
func (r *Runner) ProgramCacheStats() (hits uint64, size int) {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	return r.progHits, len(r.progs)
}

// Totals returns the number of unique simulations executed and the summed
// committed instructions and simulated cycles across them (memoized reruns
// count once). Together with a caller-side wall clock this yields sweep
// throughput in cycles/sec.
func (r *Runner) Totals() (runs int, instr, cycles uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nRuns, r.totalInstr, r.totalCycles
}

// Prefetch executes the (profile × config) cross product in parallel on a
// bounded work-stealing pool (Workers wide) and waits for completion: at
// most Workers runs are in flight at any instant regardless of grid size.
func (r *Runner) Prefetch(ps []workload.Profile, cfgs []config.Config) {
	pool := sweep.NewPool(r.Workers)
	pool.ForEach(context.Background(), len(ps)*len(cfgs), func(_, i int) {
		n := r.inFlight.Add(1)
		for {
			h := r.maxInFlight.Load()
			if n <= h || r.maxInFlight.CompareAndSwap(h, n) {
				break
			}
		}
		r.Run(ps[i/len(cfgs)], cfgs[i%len(cfgs)])
		r.inFlight.Add(-1)
	})
}

// simulate runs one configuration with lifetime tracking on and extracts
// its RunStats.
func simulate(prog *program.Program, cfg config.Config, instr, sampleInterval uint64) RunStats {
	cpu := pipeline.New(cfg, prog)
	cpu.Engine.TrackLifetimes()
	var sampler *obs.Sampler
	if sampleInterval > 0 {
		sampler = obs.NewSampler(sampleInterval)
		cpu.Observe(&obs.Observer{Sampler: sampler})
	}
	out := RunStats{Result: cpu.Run(instr)}
	led := cpu.Engine.Ledger
	out.InUse, out.Unused, out.Verified = led.StateFractions()
	out.NonBranch, out.NonExcept, out.Atomic = led.RegionFractions()
	out.GapRedefine, out.GapConsume, out.GapCommit = led.EventGaps()
	if n := led.ConsumerHist.Count(); n > 0 {
		for v := 0; v <= 6; v++ {
			out.ConsumerFrac[v] = led.ConsumerHist.Fraction(v)
		}
		var tail float64
		for v := 0; v <= 6; v++ {
			tail += out.ConsumerFrac[v]
		}
		if tail < 1 {
			out.ConsumerFrac[7] = 1 - tail
		}
	}
	out.ATRReleases = cpu.Engine.Stats.Get("release.atr")
	out.ERReleases = cpu.Engine.Stats.Get("release.er")
	out.CommitReleases = cpu.Engine.Stats.Get("release.commit")
	out.Activity = cpu.Activity()
	out.Power = power.RuntimePower(cfg, out.Activity)
	if sampler != nil {
		out.Samples = sampler.Samples()
	}
	return out
}

// geomean returns the geometric mean of xs (which must be positive). It is
// computed in the log domain (mean of logs) so long lists of large or tiny
// values cannot overflow or underflow the running product; a zero input
// yields 0 (log 0 = -Inf, exp -Inf = 0), matching the product formulation.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
