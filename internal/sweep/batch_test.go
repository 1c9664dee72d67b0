package sweep

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/workload"
)

// TestBatchMatchesSolo is the lockstep bit-identity oracle: every lane of a
// runLanes group must produce exactly the Result a solo pipeline.Run
// produces for the same configuration, across schemes and register-file
// sizes whose lanes finish at different cycles.
func TestBatchMatchesSolo(t *testing.T) {
	p := workload.Micro(7)
	prog := p.Generate()
	const instr = 3000

	var cfgs []config.Config
	for _, n := range []int{64, 96} {
		for _, s := range config.Schemes() {
			cfgs = append(cfgs, config.GoldenCove().WithPhysRegs(n).WithScheme(s))
		}
	}
	res, _, _ := runLanes(prog, cfgs, instr)
	for i, cfg := range cfgs {
		want := pipeline.New(cfg, prog).Run(instr)
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("lane %d (%s regs=%d): lockstep result diverges from solo\n got %+v\nwant %+v",
				i, cfg.Scheme, cfg.PhysRegs, res[i], want)
		}
	}
}

// TestSweepBatchDeterminism is the grouping contract: lockstep lanes are a
// pure scheduling decision, so the same grid run solo (a caller's RunFunc)
// and on the engine's own grouped path at any worker count yields
// byte-identical manifests — with profile-major deterministic unit order
// and identical SHA-256 run keys — and the grouped engine actually grouped.
func TestSweepBatchDeterminism(t *testing.T) {
	g := testGrid()

	solo := New(Options{Workers: 2})
	want, err := solo.Execute(context.Background(), g, Sim(g.Instr))
	if err != nil {
		t.Fatalf("solo sweep: %v", err)
	}
	if solo.Info().Batches != 0 || solo.Info().BatchedRuns != 0 {
		t.Errorf("a caller's RunFunc ran in lanes: %+v", solo.Info())
	}
	wantBytes := encode(t, want)

	// Keys and order are the grid's, independent of scheduling.
	units := g.Units()
	for i, r := range want.Runs {
		if r.Seq != i || r.Key != units[i].Key {
			t.Fatalf("run %d: seq=%d key=%s, want seq=%d key=%s", i, r.Seq, r.Key, i, units[i].Key)
		}
	}

	for _, workers := range []int{1, 2, 3} {
		eng := New(Options{Workers: workers})
		m, err := eng.Execute(context.Background(), g, nil)
		if err != nil {
			t.Fatalf("workers=%d sweep: %v", workers, err)
		}
		if !bytes.Equal(encode(t, m), wantBytes) {
			t.Errorf("workers=%d manifest bytes differ from solo", workers)
		}
		info := eng.Info()
		if info.Batches == 0 || info.BatchedRuns == 0 {
			t.Errorf("workers=%d engine never grouped: %+v", workers, info)
		}
		if info.BatchedRuns+(info.Done+info.Failed-info.BatchedRuns) != info.Total {
			t.Errorf("workers=%d accounting inconsistent: %+v", workers, info)
		}
	}
}

// TestSweepBatchResumeFromSoloJournal proves journals cross the grouping
// boundary: a journal written by a solo sweep resumes into a grouped sweep
// byte-identically, and vice versa — records carry no trace of the
// schedule that produced them.
func TestSweepBatchResumeFromSoloJournal(t *testing.T) {
	g := testGrid()

	var soloJournal bytes.Buffer
	solo := New(Options{Workers: 2, Journal: &soloJournal})
	want, err := solo.Execute(context.Background(), g, Sim(g.Instr))
	if err != nil {
		t.Fatalf("solo sweep: %v", err)
	}
	wantBytes := encode(t, want)

	// Truncate the solo journal to a partial sweep, then resume grouped.
	lines := strings.Split(strings.TrimRight(soloJournal.String(), "\n"), "\n")
	const keep = 7
	partial := strings.Join(lines[:1+keep], "\n") + "\n"
	j, err := LoadJournal(strings.NewReader(partial))
	if err != nil {
		t.Fatalf("load partial solo journal: %v", err)
	}

	var batchedJournal bytes.Buffer
	batched := New(Options{Workers: 3, Resume: j, Journal: &batchedJournal})
	m, err := batched.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("grouped resume: %v", err)
	}
	if !bytes.Equal(encode(t, m), wantBytes) {
		t.Error("grouped resume manifest differs from uninterrupted solo manifest")
	}
	if got := batched.Info().Resumed; got != keep {
		t.Errorf("Resumed = %d, want %d", got, keep)
	}
	if batched.Info().Batches == 0 {
		t.Errorf("resumed sweep never grouped the remaining units: %+v", batched.Info())
	}

	// And back: the grouped journal resumes into a solo sweep that executes
	// nothing and reproduces the manifest.
	j2, err := LoadJournal(bytes.NewReader(batchedJournal.Bytes()))
	if err != nil {
		t.Fatalf("load grouped journal: %v", err)
	}
	eng := New(Options{Workers: 1, Resume: j2})
	again, err := eng.Execute(context.Background(), g,
		func(ctx context.Context, u Unit) (pipeline.Result, error) {
			t.Errorf("run %s re-executed despite complete grouped journal", u.Key)
			return pipeline.Result{}, nil
		})
	if err != nil {
		t.Fatalf("solo resume of grouped journal: %v", err)
	}
	if !bytes.Equal(encode(t, again), wantBytes) {
		t.Error("solo resume of grouped journal differs from solo manifest")
	}
}

// TestSweepBatchInjectPanicFallsBack proves fault semantics survive
// grouping: a poisoned unit is excluded from lockstep groups, panics in
// the per-unit path on every attempt, and is recorded exactly as a solo
// sweep records it, while its profile-mates still run in lanes.
func TestSweepBatchInjectPanicFallsBack(t *testing.T) {
	g := testGrid()
	const poisoned = 3
	opts := Options{Workers: 2, Retries: 2, InjectPanic: poisoned}
	want, err := New(opts).Execute(context.Background(), g, Sim(g.Instr))
	if err != nil {
		t.Fatalf("solo sweep with injected panic: %v", err)
	}
	eng := New(opts)
	m, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("grouped sweep with injected panic: %v", err)
	}
	if !bytes.Equal(encode(t, m), encode(t, want)) {
		t.Error("grouped manifest with injected panic differs from solo")
	}
	if m.Totals.Failed != 1 || m.Totals.Done != m.Grid.Total-1 {
		t.Fatalf("totals %+v, want exactly one failure in %d runs", m.Totals, m.Grid.Total)
	}
	bad := m.Runs[poisoned-1]
	if bad.Err == "" || !strings.Contains(bad.Err, "injected fault") {
		t.Errorf("poisoned run error = %q, want injected fault panic", bad.Err)
	}
	if bad.Attempts != 3 {
		t.Errorf("poisoned run attempts = %d, want 1+2 retries", bad.Attempts)
	}
	info := eng.Info()
	if info.Retried != 2 {
		t.Errorf("Retried = %d, want 2", info.Retried)
	}
	if info.Batches == 0 {
		t.Errorf("healthy units never grouped around the poisoned one: %+v", info)
	}
}

// TestSweepBatchRunFailureFallsBack proves a failing lane group degrades
// to per-unit execution instead of corrupting the sweep: every config of
// the grid fails Validate, so every group the engine forms errors, yet
// each unit is still recorded, with the failure a solo sweep records.
func TestSweepBatchRunFailureFallsBack(t *testing.T) {
	g := testGrid()
	g.PhysRegs = []int{1, 2}
	want, err := New(Options{Workers: 1}).Execute(context.Background(), g, Sim(g.Instr))
	if err != nil {
		t.Fatalf("solo sweep: %v", err)
	}

	eng := New(Options{Workers: 2})
	m, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("sweep with failing groups: %v", err)
	}
	if !bytes.Equal(encode(t, m), encode(t, want)) {
		t.Error("fallback manifest differs from solo manifest")
	}
	info := eng.Info()
	if info.Batches != 0 {
		t.Errorf("failing groups recorded successful batches: %+v", info)
	}
	if info.Failed != info.Total || m.Totals.Failed != m.Grid.Total {
		t.Errorf("fallback lost runs: info %+v, totals %+v", info, m.Totals)
	}
	for _, r := range m.Runs {
		if !strings.Contains(r.Err, "PhysRegs") {
			t.Errorf("run %d error = %q, want the config validation failure", r.Seq, r.Err)
		}
	}
}
