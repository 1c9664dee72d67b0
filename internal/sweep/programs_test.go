package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"atr/internal/config"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/workload"
)

// runDigest simulates prog under cfg and returns the run summary, both
// counter dumps, and a digest of the full JSONL event trace — the same
// three observables the scheduler equivalence oracle compares.
func runDigest(cfg config.Config, prog *program.Program, n uint64) (pipeline.Result, string, string) {
	h := sha256.New()
	cpu := pipeline.New(cfg, prog)
	cpu.Observe(&obs.Observer{Tracer: obs.NewTracer(h, nil)})
	res := cpu.Run(n)
	return res, cpu.Engine.Stats.String() + cpu.Stats.String(), hex.EncodeToString(h.Sum(nil))
}

// TestSharedProgramEquivalence proves the shared program cache is
// observationally invisible: a run on the cached program — including a
// second run on the very same Program value — is bit-identical (Result,
// every counter, full event trace) to a run on a freshly generated one.
func TestSharedProgramEquivalence(t *testing.T) {
	const instrs = 4000
	p, _ := workload.ByName("xalancbmk")
	progs := new(Programs)
	shared := progs.Get(p)
	if shared != progs.Get(p) {
		t.Fatal("Get not cached: second call returned a different pointer")
	}
	cfg := config.GoldenCove().WithScheme(config.SchemeCombined).WithPhysRegs(64)

	fresRes, freshCtr, freshDig := runDigest(cfg, p.Generate(), instrs)
	for i := 0; i < 2; i++ {
		res, ctr, dig := runDigest(cfg, shared, instrs)
		if res != fresRes {
			t.Errorf("run %d on shared program: Result diverged\n shared: %+v\n fresh:  %+v", i, res, fresRes)
		}
		if ctr != freshCtr {
			t.Errorf("run %d on shared program: counters diverged\n shared: %s\n fresh:  %s", i, ctr, freshCtr)
		}
		if dig != freshDig {
			t.Errorf("run %d on shared program: trace digest diverged (%s != %s)", i, dig, freshDig)
		}
	}
}

// TestProgramsConcurrent hammers the program cache from many goroutines
// (run under -race in CI): every caller must observe the same Program
// pointer, and each profile is generated once.
func TestProgramsConcurrent(t *testing.T) {
	progs := new(Programs)
	ps := workload.Profiles()[:4]
	var wg sync.WaitGroup
	got := make([]*program.Program, 8*len(ps))
	for g := 0; g < 8; g++ {
		for pi, p := range ps {
			wg.Add(1)
			go func(g, pi int, p workload.Profile) {
				defer wg.Done()
				got[g*len(ps)+pi] = progs.Get(p)
			}(g, pi, p)
		}
	}
	wg.Wait()
	for pi, p := range ps {
		want := progs.Get(p)
		for g := 0; g < 8; g++ {
			if got[g*len(ps)+pi] != want {
				t.Errorf("%s: goroutine %d saw a different Program pointer", p.Name, g)
			}
		}
	}
	if hits, size := progs.Stats(); size != len(ps) || hits != uint64(8*len(ps)) {
		t.Errorf("Stats = (%d hits, %d resident), want (%d, %d)", hits, size, 8*len(ps), len(ps))
	}
}

// TestProgramsBounded proves the cache holds at most its bound, evicting
// the least recently used image, and that a regenerated image equals the
// original (generation is a pure function of the profile).
func TestProgramsBounded(t *testing.T) {
	progs := &Programs{max: 2}
	var ps []workload.Profile
	for i := 0; i < 4; i++ {
		p := workload.Micro(uint64(20 + i))
		p.Name = fmt.Sprintf("lru-prog-%d", i)
		ps = append(ps, p)
	}
	first := progs.Get(ps[0])
	for _, p := range ps {
		progs.Get(p)
	}
	if _, size := progs.Stats(); size != 2 {
		t.Fatalf("%d images resident, want the bound 2", size)
	}
	// ps[0] was evicted by ps[2]; a fresh request regenerates, yielding a
	// distinct pointer but an identical image.
	again := progs.Get(ps[0])
	if first == again {
		t.Fatalf("program for %s not evicted under bound 2", ps[0].Name)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("regenerated program for %s differs from original", ps[0].Name)
	}
	// The most recently used survivor keeps its pointer identity.
	p3 := progs.Get(ps[3])
	if progs.Get(ps[3]) != p3 {
		t.Fatalf("resident program lost pointer identity")
	}
}

// perturb mutates the addressable leaf value v to something different, so
// tests can prove the field is observable through MemoKey.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic(fmt.Sprintf("perturb: unsupported kind %v", v.Kind()))
	}
}

// leafFields appends the paths of every settable leaf field of struct type
// t, recursing into embedded struct fields (e.g. the per-level CacheConfig
// blocks inside Config).
func leafFields(t reflect.Type, prefix []int, out *[][]int) {
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int{}, prefix...), i)
		if f := t.Field(i); f.Type.Kind() == reflect.Struct {
			leafFields(f.Type, path, out)
		} else {
			*out = append(*out, path)
		}
	}
}

// TestKeyCoversEveryConfigField walks config.Config by reflection,
// perturbs each leaf field in turn, and asserts MemoKey changes. This pins
// the key contract every run key and figure lookup rests on: no present or
// future Config field may silently alias two different simulations onto
// one record.
func TestKeyCoversEveryConfigField(t *testing.T) {
	p, _ := workload.ByName("exchange2")
	base := config.GoldenCove()
	baseKey := MemoKey(p, base)

	var paths [][]int
	leafFields(reflect.TypeOf(base), nil, &paths)
	if len(paths) < 20 {
		t.Fatalf("only %d leaf fields found; reflection walk broken?", len(paths))
	}
	for _, path := range paths {
		cfg := base
		v := reflect.ValueOf(&cfg).Elem()
		name := ""
		tt := reflect.TypeOf(base)
		for _, i := range path {
			name += "." + tt.Field(i).Name
			tt = tt.Field(i).Type
			v = v.Field(i)
		}
		perturb(v)
		if MemoKey(p, cfg) == baseKey {
			t.Errorf("perturbing Config%s does not change the memoization key", name)
		}
	}

	// The profile identity must participate too.
	q, _ := workload.ByName("omnetpp")
	if MemoKey(q, base) == baseKey {
		t.Error("profile name does not change the memoization key")
	}
}
