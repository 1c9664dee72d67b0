package main

import (
	"bufio"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/sweep"
	"atr/internal/workload"
)

// The golden tables were computed offline by the sweep engine at the
// commit that introduced this benchmark (-write-golden). Every op's output
// is checked against them, so a change that is faster but simulates
// differently fails ops instead of winning.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenColumns are the checked fields of each record, in table order.
var goldenColumns = []string{"cycles", "committed", "mispredicts", "rename_stalls", "ipc"}

// goldenTable maps a run label (bench/regs/scheme/instr) to its golden
// result columns.
type goldenTable struct {
	Note    string   `json:"note"`
	Columns []string `json:"columns"`
	// Sample is the sampling plan every run of the table used ("" exact).
	Sample string `json:"sample,omitempty"`
	// ExactIPC holds, for the sampled table, the 10M-instruction exact
	// IPC per profile that BENCH_8.json records: the reference
	// checkpoint.ipc_err_pct is measured against.
	ExactIPC map[string]float64   `json:"exact_ipc,omitempty"`
	Runs     map[string][]float64 `json:"runs"`
}

// goldenSet is every table the workloads check against.
type goldenSet struct {
	fig10, sampled, serve *goldenTable
}

const (
	fig10File   = "fig10.json"
	sampledFile = "sampled.json"
	serveFile   = "serve.json"
)

func loadGolden() (*goldenSet, error) {
	load := func(name string) (*goldenTable, error) {
		b, err := goldenFS.ReadFile("golden/" + name)
		if err != nil {
			return nil, err
		}
		var t goldenTable
		if err := json.Unmarshal(b, &t); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		return &t, nil
	}
	var gs goldenSet
	var err error
	if gs.fig10, err = load(fig10File); err != nil {
		return nil, err
	}
	if gs.sampled, err = load(sampledFile); err != nil {
		return nil, err
	}
	if gs.serve, err = load(serveFile); err != nil {
		return nil, err
	}
	return &gs, nil
}

func runLabel(bench string, regs int, scheme string, instr uint64) string {
	return fmt.Sprintf("%s/%d/%s/%d", bench, regs, scheme, instr)
}

// checkRecord verifies one record of a grid run with the given instruction
// budget: it must have succeeded, carry the run key its identity hashes
// to, and match the golden columns exactly.
func (t *goldenTable) checkRecord(rec sweep.Record, instr uint64) error {
	label := runLabel(rec.Bench, rec.PhysRegs, rec.Scheme, instr)
	if rec.Err != "" {
		return fmt.Errorf("%s: run failed: %s", label, rec.Err)
	}
	if rec.Sample != t.Sample {
		return fmt.Errorf("%s: sample mode %q, golden %q", label, rec.Sample, t.Sample)
	}
	p, ok := workload.ByName(rec.Bench)
	if !ok {
		return fmt.Errorf("%s: unknown profile", label)
	}
	sc, err := config.ParseScheme(rec.Scheme)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	cfg := config.GoldenCove().WithPhysRegs(rec.PhysRegs).WithScheme(sc)
	if want := sweep.KeyWithSample(p, cfg, rec.Sample); rec.Key != want {
		return fmt.Errorf("%s: run key %s, want %s", label, rec.Key, want)
	}
	g, ok := t.Runs[label]
	if !ok {
		return fmt.Errorf("%s: no golden entry", label)
	}
	got := resultColumns(rec.Result)
	for i := range got {
		if got[i] != g[i] {
			return fmt.Errorf("%s: %s = %v, golden %v", label, goldenColumns[i], got[i], g[i])
		}
	}
	return nil
}

func resultColumns(r pipeline.Result) []float64 {
	return []float64{float64(r.Cycles), float64(r.Committed), float64(r.Mispredicts), float64(r.RenameStalls), r.IPC}
}

// perturb adds one cycle to a golden entry: the self-test that shows a
// wrong result is counted as a failed op.
func (gs *goldenSet) perturb(label string) error {
	for _, t := range []*goldenTable{gs.fig10, gs.sampled, gs.serve} {
		if g, ok := t.Runs[label]; ok {
			g[0]++
			return nil
		}
	}
	return fmt.Errorf("no golden entry %q to perturb", label)
}

// checkManifest verifies every record of a grid manifest. It returns the
// number of records that fail (units missing from the manifest count as
// failed) and the errors found, including inconsistent totals.
func (t *goldenTable) checkManifest(m *sweep.Manifest) (bad int, errs []error) {
	if m.Totals.Failed != 0 || m.Totals.Done != len(m.Runs) || len(m.Runs) != m.Grid.Total {
		errs = append(errs, fmt.Errorf("manifest totals: %d done, %d failed, %d runs, grid total %d",
			m.Totals.Done, m.Totals.Failed, len(m.Runs), m.Grid.Total))
	}
	if missing := m.Grid.Total - len(m.Runs); missing > 0 {
		bad += missing
	}
	for _, rec := range m.Runs {
		if err := t.checkRecord(rec, m.Grid.Instr); err != nil {
			bad++
			errs = append(errs, err)
		}
	}
	return bad, errs
}

// verifyManifestFile checks a manifest written by atrsweep or served by
// atrd against the matching golden table.
func verifyManifestFile(gs *goldenSet, path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer f.Close()
	m, err := sweep.DecodeManifest(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	t := gs.serve
	switch {
	case len(m.Grid.SampleModes) > 0:
		t = gs.sampled
	case m.Grid.Instr == fig10Instr:
		t = gs.fig10
	}
	bad, errs := t.checkManifest(m)
	for _, err := range errs {
		fmt.Println("mismatch:", err)
	}
	fmt.Printf("%s: %d records, %d mismatches\n", path, len(m.Runs), bad)
	if len(errs) > 0 {
		return 1
	}
	return 0
}

// writeGoldenTables recomputes every table with the offline sweep engine
// and writes them to dir. bench8 is BENCH_8.json, whose sampled IPCs the
// sampled table must reproduce to 4 decimal places.
func writeGoldenTables(dir, bench8 string) error {
	ctx := context.Background()
	exec := func(g sweep.Grid) ([]sweep.Record, error) {
		m, err := sweep.New(sweep.Options{Workers: 2}).Execute(ctx, g, nil)
		if err != nil {
			return nil, err
		}
		if m.Totals.Failed != 0 {
			return nil, fmt.Errorf("grid %s: %d failed runs", g.Name, m.Totals.Failed)
		}
		return m.Runs, nil
	}
	fill := func(t *goldenTable, recs []sweep.Record, instr uint64) {
		for _, rec := range recs {
			t.Runs[runLabel(rec.Bench, rec.PhysRegs, rec.Scheme, instr)] = resultColumns(rec.Result)
		}
	}
	newTable := func(note, sample string) *goldenTable {
		return &goldenTable{Note: note, Columns: goldenColumns, Sample: sample, Runs: make(map[string][]float64)}
	}

	fig := newTable("sweep.Fig10Grid(40000) on sweep.Engine; equals atrsweep -grid fig10 -n 40000", "")
	recs, err := exec(fig10Grid(nil))
	if err != nil {
		return err
	}
	fill(fig, recs, fig10Instr)

	sam := newTable("23 profiles x combined x 64 registers, "+sampledPlan+", 10M instructions; exact_ipc from BENCH_8.json", sampledPlan)
	if recs, err = exec(sampledGrid(nil)); err != nil {
		return err
	}
	fill(sam, recs, sampledInstr)
	if sam.ExactIPC, err = checkBench8(bench8, recs); err != nil {
		return err
	}

	srv := newTable("every (client, chain) key of the serve job stream, computed offline: served records must equal these", "")
	for c := 0; c < serveClients; c++ {
		for k := 0; k < serveChains; k++ {
			instr := chainInstr(c, k)
			g := sweep.Grid{
				Name: "serve-golden", Instr: instr, Base: config.GoldenCove(),
				Profiles: workload.Profiles(), PhysRegs: serveRegs, Schemes: config.Schemes(),
			}
			if recs, err = exec(g); err != nil {
				return err
			}
			fill(srv, recs, instr)
		}
	}

	for name, t := range map[string]*goldenTable{fig10File: fig, sampledFile: sam, serveFile: srv} {
		if err := encodeTable(filepath.Join(dir, name), t); err != nil {
			return err
		}
	}
	return nil
}

// checkBench8 requires the sampled records to reproduce BENCH_8.json's
// sampled IPC for the same plan to 4 decimal places, and returns its
// exact IPC per profile.
func checkBench8(path string, recs []sweep.Record) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Accuracy struct {
			Rows []struct {
				Bench      string  `json:"bench"`
				Plan       string  `json:"plan"`
				ExactIPC   float64 `json:"exact_ipc"`
				SampledIPC float64 `json:"sampled_ipc"`
			} `json:"rows"`
		} `json:"accuracy"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	exact := make(map[string]float64)
	sampled := make(map[string]float64)
	for _, row := range doc.Accuracy.Rows {
		if row.Plan == sampledPlan {
			exact[row.Bench], sampled[row.Bench] = row.ExactIPC, row.SampledIPC
		}
	}
	for _, rec := range recs {
		want, ok := sampled[rec.Bench]
		if !ok {
			return nil, fmt.Errorf("%s: %s has no %s row", path, rec.Bench, sampledPlan)
		}
		if got := math.Round(rec.Result.IPC*1e4) / 1e4; got != want {
			return nil, fmt.Errorf("%s: sampled IPC %.4f, BENCH_8 %.4f", rec.Bench, got, want)
		}
	}
	return exact, nil
}

// encodeTable writes a table with one run per line, labels sorted, so the
// file stays reviewable and diffs line by line.
func encodeTable(path string, t *goldenTable) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := func(v any) string {
		b, _ := json.Marshal(v) // strings, floats and maps of them always encode
		return string(b)
	}
	fmt.Fprintf(w, "{\n  \"note\": %s,\n  \"columns\": %s,\n", enc(t.Note), enc(t.Columns))
	if t.Sample != "" {
		fmt.Fprintf(w, "  \"sample\": %s,\n", enc(t.Sample))
	}
	if t.ExactIPC != nil {
		fmt.Fprintf(w, "  \"exact_ipc\": %s,\n", enc(t.ExactIPC))
	}
	labels := make([]string, 0, len(t.Runs))
	for l := range t.Runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	io.WriteString(w, "  \"runs\": {\n")
	for i, l := range labels {
		sep := ","
		if i == len(labels)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "    %s: %s%s\n", enc(l), enc(t.Runs[l]), sep)
	}
	io.WriteString(w, "  }\n}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
