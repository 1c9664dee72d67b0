package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"atr/internal/sweep"
	"atr/internal/workload"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists perfbench reports in step: same names, units and order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one perfbench runs", w.Name)
		}
	}
}

// TestPerturbedGoldenFailsOp is the output check's self-test: one
// profile's Fig 10 units match the golden table, and perturbing one golden
// entry turns exactly that unit into a failed op.
func TestPerturbedGoldenFailsOp(t *testing.T) {
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("gcc")
	m, err := sweep.New(sweep.Options{Workers: 2}).Execute(context.Background(), fig10Grid([]workload.Profile{p}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad, errs := gs.fig10.checkManifest(m); bad != 0 || len(errs) != 0 {
		t.Fatalf("unperturbed: %d failed, %v", bad, errs)
	}
	if err := gs.perturb("gcc/64/baseline/40000"); err != nil {
		t.Fatal(err)
	}
	bad, errs := gs.fig10.checkManifest(m)
	if bad != 1 || len(errs) != 1 {
		t.Fatalf("perturbed: %d failed ops, errors %v; want exactly 1", bad, errs)
	}
	t.Logf("perturbed golden entry reported: %v", errs[0])
}

// TestJobStreamKeys checks the serve stream's design: every job after a
// chain's opener repeats one profile of the previous job and adds one new
// one, clients never share a run key, every key has a golden entry, and
// the seed permutes the order without changing the set of keys.
func TestJobStreamKeys(t *testing.T) {
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	names := func(seed uint64, c int) []string {
		var out []string
		for _, p := range permutedProfiles(seed, uint64(1+c)) {
			out = append(out, p.Name)
		}
		return out
	}
	cycle := serveChains * len(workload.Profiles())
	keySet := func(seed uint64) map[string]int {
		set := make(map[string]int)
		for c := 0; c < serveClients; c++ {
			perm := names(seed, c)
			for i := 0; i < cycle; i++ {
				j := jobAt(perm, c, i)
				if i%len(perm) != 0 {
					prev := jobAt(perm, c, i-1)
					if j.profiles[0] != prev.profiles[len(prev.profiles)-1] || j.instr != prev.instr {
						t.Fatalf("client %d job %d does not repeat the previous job's new profile", c, i)
					}
				}
				for _, l := range j.labels() {
					if owner, ok := set[l]; ok && owner != c {
						t.Fatalf("key %s shared by clients %d and %d", l, owner, c)
					}
					set[l] = c
					if _, ok := gs.serve.Runs[l]; !ok {
						t.Fatalf("key %s has no golden entry", l)
					}
				}
			}
		}
		return set
	}
	a, b := keySet(1), keySet(2)
	if len(a) != len(b) || len(a) != len(gs.serve.Runs) {
		t.Fatalf("seed 1 uses %d keys, seed 2 %d, golden table holds %d", len(a), len(b), len(gs.serve.Runs))
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			t.Fatalf("key %s used under seed 1 only", k)
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals, counting overlaps once and clipping to the span.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, at(0), at(100), "")
	tr.add("child", root, at(10), at(30), "")
	tr.add("child", root, at(20), at(50), "")
	tr.add("child", root, at(90), at(120), "")
	self := tr.selfTimes()
	if got := self["root"]; got != 50 {
		t.Errorf("root self time %v ms, want 50", got)
	}
	if got := self["child"]; got != 80 {
		t.Errorf("child self time %v ms, want 80", got)
	}
}
