package sweep

import (
	"bytes"
	"context"
	"testing"
)

// sampleTestGrid is the engine test grid with a mixed sampled-execution
// axis: every unit runs once exact and once under a short systematic plan.
func sampleTestGrid() Grid {
	g := testGrid()
	g.SampleModes = []string{"", "systematic:300/100/50"}
	return g
}

// TestSampleAxisKeys proves the sampled-execution axis multiplies the grid
// without aliasing: every (profile, config, mode) triple gets a distinct
// key, and the exact-mode key is byte-identical to the pre-axis Key — so
// journals written before the axis existed still resume cleanly.
func TestSampleAxisKeys(t *testing.T) {
	g := sampleTestGrid()
	units := g.Units()
	base := testGrid().Units()
	if want := 2 * len(base); len(units) != want {
		t.Fatalf("axis of 2 modes expanded to %d units, want %d", len(units), want)
	}
	if got, want := len(units), g.info().Total; got != want {
		t.Errorf("%d units, GridInfo.Total says %d", got, want)
	}
	seen := make(map[string]bool)
	exactKeys := make(map[string]bool)
	for _, u := range base {
		exactKeys[u.Key] = true
	}
	for _, u := range units {
		if seen[u.Key] {
			t.Errorf("duplicate key %s (sample %q)", u.Key, u.Sample)
		}
		seen[u.Key] = true
		if (u.Sample == "") != exactKeys[u.Key] {
			t.Errorf("unit %d (sample %q) key %s: exact keys must match the pre-axis grid exactly",
				u.Seq, u.Sample, u.Key)
		}
	}
}

// TestSampleAxisSweep runs a mixed sampled/exact grid end to end: the
// manifest must be deterministic across worker counts, record the sampling
// plan on every sampled run, and report the mode split in the engine's
// telemetry.
func TestSampleAxisSweep(t *testing.T) {
	g := sampleTestGrid()
	var want []byte
	for _, workers := range []int{1, 4} {
		eng := New(Options{Workers: workers})
		m, err := eng.Execute(context.Background(), g, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Totals.Failed != 0 || m.Totals.Done != m.Grid.Total {
			t.Fatalf("workers=%d: totals %+v, want all %d done", workers, m.Totals, m.Grid.Total)
		}
		sampled := 0
		for _, r := range m.Runs {
			if r.Sample != "" {
				sampled++
				if r.Sample != "systematic:300/100/50" {
					t.Errorf("run %d: sample %q, want the grid's plan", r.Seq, r.Sample)
				}
			}
		}
		if sampled != len(m.Runs)/2 {
			t.Errorf("workers=%d: %d of %d runs sampled, want half", workers, sampled, len(m.Runs))
		}
		info := eng.Info()
		if info.Sample == nil {
			t.Fatalf("workers=%d: SweepInfo.Sample missing on a sampled sweep", workers)
		}
		if info.Sample.SampledRuns != sampled || info.Sample.ExactRuns != len(m.Runs)-sampled {
			t.Errorf("workers=%d: telemetry says %d sampled / %d exact, manifest says %d / %d",
				workers, info.Sample.SampledRuns, info.Sample.ExactRuns, sampled, len(m.Runs)-sampled)
		}
		got := encode(t, m)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: manifest bytes differ from workers=1", workers)
		}
	}
}

// TestSampleAxisNeverBatched proves sampled units are excluded from
// lockstep groups at scheduling time: on the engine's grouped path, every
// grouped run is an exact unit, and the sweep still completes with the
// deterministic manifest. The one-profile grid ends its exact units
// mid-group, right before a sampled unit of the same profile.
func TestSampleAxisNeverBatched(t *testing.T) {
	odd := sampleTestGrid()
	odd.Profiles, odd.PhysRegs, odd.Schemes = odd.Profiles[:1], odd.PhysRegs[:1], odd.Schemes[:3]
	for _, g := range []Grid{sampleTestGrid(), odd} {
		exactRuns := len(g.Units()) / len(g.SampleModes)
		ref := New(Options{Workers: 1})
		wantM, err := ref.Execute(context.Background(), g, Sim(g.Instr))
		if err != nil {
			t.Fatalf("solo sweep: %v", err)
		}
		for _, workers := range []int{1, 4} {
			eng := New(Options{Workers: workers})
			m, err := eng.Execute(context.Background(), g, nil)
			if err != nil {
				t.Fatalf("%d units, workers=%d: grouped sweep: %v", len(g.Units()), workers, err)
			}
			info := eng.Info()
			if info.BatchedRuns == 0 {
				t.Fatalf("%d units, workers=%d: expected the exact units to run in lanes (telemetry: %+v)",
					len(g.Units()), workers, info)
			}
			if info.BatchedRuns > exactRuns {
				t.Errorf("%d units, workers=%d: %d grouped runs exceeds the %d exact units — a sampled unit was grouped",
					len(g.Units()), workers, info.BatchedRuns, exactRuns)
			}
			if !bytes.Equal(encode(t, m), encode(t, wantM)) {
				t.Errorf("%d units, workers=%d: grouped manifest differs from solo", len(g.Units()), workers)
			}
		}
	}
}

// TestSampleAxisExactUnchanged pins the compatibility contract: a grid
// with no sampled-execution axis produces a manifest with no sample
// fields at all — byte-compatible with manifests written before the axis
// existed.
func TestSampleAxisExactUnchanged(t *testing.T) {
	eng := New(Options{Workers: 2})
	m, err := eng.Execute(context.Background(), testGrid(), nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	raw := encode(t, m)
	if bytes.Contains(raw, []byte(`"sample`)) {
		t.Errorf("exact-only manifest mentions sampling:\n%s", raw)
	}
	if eng.Info().Sample != nil {
		t.Errorf("exact-only sweep has SweepInfo.Sample = %+v, want nil", eng.Info().Sample)
	}
}
