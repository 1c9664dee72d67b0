// Command atrview summarizes observability artifacts without leaving the
// terminal: per-stage latency histograms and top stall reasons from a JSONL
// pipeline event trace, validation plus a one-screen digest of a run
// manifest, and inspection of sweep journals and grid manifests.
//
// Usage:
//
//	atrview -trace out.jsonl
//	atrview -manifest run.json
//	atrview -journal sweep.jsonl
//	atrview -sweep grid.json      (also accepts -perf telemetry manifests)
//	atrview -spans spans.jsonl    (a server job's lifecycle span log)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"atr/internal/obs"
	"atr/internal/stats"
	"atr/internal/sweep"
	"atr/internal/telemetry"
)

func main() {
	tracePath := flag.String("trace", "", "summarize a JSONL pipeline event trace")
	manifestPath := flag.String("manifest", "", "validate and summarize a run manifest")
	journalPath := flag.String("journal", "", "summarize a sweep journal (resume state, failures)")
	sweepPath := flag.String("sweep", "", "validate and summarize a sweep grid manifest")
	spansPath := flag.String("spans", "", "summarize a server job's lifecycle span log")
	flag.Parse()

	if *tracePath == "" && *manifestPath == "" && *journalPath == "" && *sweepPath == "" && *spansPath == "" {
		fmt.Fprintln(os.Stderr, "usage: atrview -trace out.jsonl | -manifest run.json | -journal sweep.jsonl | -sweep grid.json | -spans spans.jsonl")
		os.Exit(2)
	}
	if *tracePath != "" {
		summarizeTrace(*tracePath)
	}
	if *manifestPath != "" {
		summarizeManifest(*manifestPath)
	}
	if *journalPath != "" {
		summarizeJournal(*journalPath)
	}
	if *sweepPath != "" {
		summarizeSweep(*sweepPath)
	}
	if *spansPath != "" {
		summarizeSpans(*spansPath)
	}
}

// summarizeSpans renders a job's lifecycle span log: per-name aggregates
// (count, total, mean, max) and a wall-clock timeline of the non-run
// stages, with run spans collapsed into their aggregate row so a thousand
// runs do not scroll a terminal.
func summarizeSpans(path string) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()
	spans, dropped, err := telemetry.ReadSpans(f)
	if err != nil {
		die(err)
	}
	if len(spans) == 0 {
		fmt.Printf("spans          %s: empty\n", path)
		return
	}

	type agg struct {
		name  string
		n     int
		total time.Duration
		max   time.Duration
		fails int
	}
	byName := map[string]*agg{}
	order := []string{}
	jobs := map[string]bool{}
	var t0 time.Time
	for _, s := range spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{name: s.Name}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.total += s.Dur()
		if s.Dur() > a.max {
			a.max = s.Dur()
		}
		if s.Err != "" {
			a.fails++
		}
		jobs[s.Job] = true
		if st, err := s.StartTime(); err == nil && (t0.IsZero() || st.Before(t0)) {
			t0 = st
		}
	}

	fmt.Printf("spans          %s: %d spans, %d job(s)\n", path, len(spans), len(jobs))
	if dropped > 0 {
		fmt.Printf("damage         %d unreadable line(s) dropped (torn tail writes are expected after a kill)\n", dropped)
	}
	fmt.Printf("\n%-12s %8s %12s %12s %12s %6s\n", "span", "count", "total", "mean", "max", "fails")
	for _, name := range order {
		a := byName[name]
		fmt.Printf("%-12s %8d %12s %12s %12s %6d\n",
			a.name, a.n, a.total.Round(time.Microsecond),
			(a.total / time.Duration(a.n)).Round(time.Microsecond),
			a.max.Round(time.Microsecond), a.fails)
	}

	fmt.Printf("\ntimeline (offsets from first span):\n")
	for _, s := range spans {
		if s.Name == "run" {
			continue // collapsed into the aggregate table above
		}
		st, err := s.StartTime()
		if err != nil {
			continue
		}
		detail := s.Detail
		if s.Err != "" {
			detail = "ERR " + s.Err
		}
		fmt.Printf("  +%-12s %-12s %-10s %12s  %s\n",
			st.Sub(t0).Round(time.Microsecond), s.Name, s.Job,
			s.Dur().Round(time.Microsecond), detail)
	}
}

// summarizeJournal answers the mid-sweep operator questions: how far did
// the sweep get, what failed, and is the file damaged.
func summarizeJournal(path string) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()
	j, err := sweep.LoadJournal(f)
	if err != nil {
		die(err)
	}
	done, failed := 0, 0
	var failures []sweep.Record
	for _, r := range j.Records {
		if r.Err == "" {
			done++
		} else {
			failed++
			failures = append(failures, r)
		}
	}
	fmt.Printf("journal        %s (grid %s, %d instr/run)\n", path, j.Grid, j.Instr)
	fmt.Printf("progress       %d/%d runs journaled (%d ok, %d failed)\n",
		done+failed, j.Total, done, failed)
	if j.Dropped > 0 {
		fmt.Printf("damage         %d unreadable line(s) dropped (torn tail writes are expected after a kill)\n", j.Dropped)
	}
	if rem := j.Total - done; rem > 0 {
		fmt.Printf("resume         %d run(s) still to execute (-resume %s)\n", rem, path)
	} else {
		fmt.Printf("resume         complete; a resumed sweep would re-execute nothing\n")
	}
	sort.Slice(failures, func(i, k int) bool { return failures[i].Seq < failures[k].Seq })
	for _, r := range failures {
		fmt.Printf("  FAIL run %d %s/%s prf=%d after %d attempt(s): %s\n",
			r.Seq, r.Bench, r.Scheme, r.PhysRegs, r.Attempts, r.Err)
	}
}

// summarizeSweep validates a sweep artifact and prints its digest. It
// accepts either a deterministic grid manifest or the scheduling-telemetry
// perf manifest (atr-sweep-perf) that rides alongside it, sniffing the
// schema field to tell them apart.
func summarizeSweep(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		die(err)
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		die(fmt.Errorf("%s: %w", path, err))
	}
	if probe.Schema == obs.PerfManifestSchema {
		summarizePerf(path, raw)
		return
	}
	m, err := sweep.DecodeManifest(bytes.NewReader(raw))
	if err != nil {
		die(err)
	}
	g := m.Grid
	fmt.Printf("sweep          %s (schema %s v%d, valid)\n", path, m.Schema, m.Version)
	fmt.Printf("grid           %s: %d profiles x %d RF sizes x %d schemes = %d runs, %d instr/run\n",
		g.Name, len(g.Profiles), len(g.PhysRegs), len(g.Schemes), g.Total, g.Instr)
	fmt.Printf("totals         %d ok, %d failed; %d instructions, %d cycles\n",
		m.Totals.Done, m.Totals.Failed, m.Totals.Committed, m.Totals.Cycles)
	if len(g.SampleModes) > 0 {
		fmt.Printf("sample axis    %s\n", strings.Join(g.SampleModes, ", "))
	}
	sampled := 0
	for _, r := range m.Runs {
		if r.Sample != "" {
			sampled++
		}
	}
	if sampled > 0 {
		fmt.Printf("sampled runs   %d of %d are extrapolated estimates (plan in each run's \"sample\" field)\n",
			sampled, len(m.Runs))
		if sampled < len(m.Runs) {
			fmt.Printf("WARNING        manifest mixes sampled and exact units: compare IPC only within one mode, never across\n")
		}
	}
	for _, r := range m.Runs {
		if r.Err != "" {
			fmt.Printf("  FAIL run %d %s/%s prf=%d after %d attempt(s): %s\n",
				r.Seq, r.Bench, r.Scheme, r.PhysRegs, r.Attempts, r.Err)
		}
	}
}

// summarizePerf digests a scheduling-telemetry manifest: where and when
// the sweep ran (provenance added by the daemon or atrsweep), how it was
// scheduled, and per-shard throughput.
func summarizePerf(path string, raw []byte) {
	pm, err := obs.DecodePerfManifest(bytes.NewReader(raw))
	if err != nil {
		die(err)
	}
	info := pm.Sweep
	fmt.Printf("perf           %s (schema %s v%d, valid)\n", path, pm.Schema, pm.Version)
	fmt.Printf("build          %s %s\n", pm.Build.GoVersion, pm.Build.Revision)
	if info.Host != "" || info.JobID != "" {
		host := info.Host
		if host == "" {
			host = "?"
		}
		if info.JobID != "" {
			fmt.Printf("provenance     host %s, server job %s\n", host, info.JobID)
		} else {
			fmt.Printf("provenance     host %s\n", host)
		}
	}
	if info.StartedAt != "" {
		fmt.Printf("window         %s .. %s\n", info.StartedAt, info.FinishedAt)
	}
	fmt.Printf("sweep          %d/%d done, %d failed, %d retried, %d resumed\n",
		info.Done, info.Total, info.Failed, info.Retried, info.Resumed)
	fmt.Printf("perf           %.2fs wall, %.0f cycles/s, %d journal flushes\n",
		info.WallSeconds, info.CyclesPerSec, info.JournalFlushes)
	if sm := info.Sample; sm != nil {
		fmt.Printf("sampling       %d sampled + %d exact runs (modes: %s)\n",
			sm.SampledRuns, sm.ExactRuns, strings.Join(sm.Modes, ", "))
	}
	if info.Batches > 0 {
		// Lane occupancy: batched runs per group versus the configured cap.
		fmt.Printf("batching       %d groups covering %d runs, %.1f/%d lanes occupied, %.2fs setup, %.2fs exec\n",
			info.Batches, info.BatchedRuns,
			float64(info.BatchedRuns)/float64(info.Batches), info.Batch,
			info.SetupSeconds, info.ExecSeconds)
	}
	for _, s := range info.Shards {
		if s.Runs == 0 {
			continue
		}
		fmt.Printf("  shard %d: %d runs (%d failed), %.2fs busy, %.0f cycles/s\n",
			s.Worker, s.Runs, s.Failed, s.BusySeconds, s.CyclesPerSec)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "atrview:", err)
	os.Exit(1)
}

// stageGap names one per-uop latency component of the pipeline walk.
type stageGap struct {
	name string
	hist *stats.Histogram
}

const histMax = 2048 // cycles; longer gaps land in the overflow bucket

func summarizeTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()

	gaps := []*stageGap{
		{name: "fetch->rename", hist: stats.NewHistogram(histMax)},
		{name: "rename->issue", hist: stats.NewHistogram(histMax)},
		{name: "issue->complete", hist: stats.NewHistogram(histMax)},
		{name: "complete->commit", hist: stats.NewHistogram(histMax)},
	}
	var committed, squashed uint64
	stalls := make(map[string]uint64) // dominant gap per committed uop
	byScheme := make(map[string]uint64)
	byRegion := make(map[string]uint64)
	var releases uint64

	err = obs.ReadTrace(f,
		func(ev obs.UopEvent) {
			if ev.Squashed {
				squashed++
				return
			}
			committed++
			deltas := [4]uint64{
				ev.Rename - ev.Fetch,
				ev.Issue - ev.Rename,
				ev.Complete - ev.Issue,
				ev.Commit - ev.Complete,
			}
			dominant, worst := 0, uint64(0)
			for i, d := range deltas {
				gaps[i].hist.Add(int(d))
				if d > worst {
					dominant, worst = i, d
				}
			}
			stalls[gaps[dominant].name]++
		},
		func(ev obs.ReleaseEvent) {
			releases++
			byScheme[ev.Scheme]++
			byRegion[ev.Region]++
		})
	if err != nil {
		die(err)
	}

	fmt.Printf("trace          %s\n", path)
	fmt.Printf("uops           %d committed, %d squashed (%.1f%% wrong-path)\n",
		committed, squashed, pct(squashed, committed+squashed))
	fmt.Printf("\nstage latencies (cycles):\n")
	fmt.Printf("%-18s %10s %8s %6s %6s %6s %8s\n", "stage", "count", "mean", "p50", "p90", "p99", "max-seen")
	for _, g := range gaps {
		h := g.hist
		fmt.Printf("%-18s %10d %8.1f %6d %6d %6d %8d\n",
			g.name, h.Count(), h.Mean(), h.Percentile(0.5), h.Percentile(0.9),
			h.Percentile(0.99), h.Percentile(1))
	}
	fmt.Printf("\ntop stall reasons (dominant per-uop gap):\n")
	for _, kv := range sortedDesc(stalls) {
		fmt.Printf("  %-18s %10d uops (%.1f%%)\n", kv.k, kv.v, pct(kv.v, committed))
	}
	if releases > 0 {
		fmt.Printf("\nregister releases: %d\n", releases)
		fmt.Printf("  by scheme:")
		for _, kv := range sortedDesc(byScheme) {
			fmt.Printf("  %s %d", kv.k, kv.v)
		}
		fmt.Printf("\n  by region:")
		for _, kv := range sortedDesc(byRegion) {
			fmt.Printf("  %s %d", kv.k, kv.v)
		}
		fmt.Println()
	}
}

func summarizeManifest(path string) {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()
	m, err := obs.DecodeManifest(f)
	if err != nil {
		die(err)
	}
	fmt.Printf("manifest       %s (schema %s v%d, valid)\n", path, m.Schema, m.Version)
	fmt.Printf("build          %s %s\n", m.Build.GoVersion, m.Build.Revision)
	fmt.Printf("benchmark      %s (%s), seed %d\n", m.Benchmark.Name, m.Benchmark.Class, m.Benchmark.Seed)
	fmt.Printf("machine        scheme %v, %d regs/class, ROB %d\n",
		m.Config.Scheme, m.Config.PhysRegs, m.Config.ROBSize)
	fmt.Printf("result         %d instructions, %d cycles, IPC %.3f\n",
		m.Result.Committed, m.Result.Cycles, m.Result.IPC)
	if sm := m.Sample; sm != nil {
		fmt.Printf("sampled        %s: %d windows, %d detailed, %d fast-forwarded instructions\n",
			sm.Mode, sm.Windows, sm.DetailInstr, sm.FFInstr)
		fmt.Printf("error bars     IPC ±%.2f%%, mispredict ±%.2f%%, branch acc ±%.2f%%, L1D hit ±%.2f%% (95%% CI)\n",
			100*sm.IPCRelErr, 100*sm.MispredictRelErr, 100*sm.BranchAccRelErr, 100*sm.L1DHitRelErr)
	}
	fmt.Printf("lifecycle      in-use %.1f%%, unused %.1f%%, verified-unused %.1f%%\n",
		100*m.Ledger.InUse, 100*m.Ledger.Unused, 100*m.Ledger.VerifiedUnused)
	fmt.Printf("atomic ratio   %.1f%%\n", 100*m.Ledger.Atomic)
	fmt.Printf("perf           %.2fs wall, %.0f instr/s\n", m.Perf.WallSeconds, m.Perf.InstrPerSec)
	if len(m.Samples) > 0 {
		fmt.Printf("samples        %d intervals\n", len(m.Samples))
	}
	if m.Trace != nil {
		fmt.Printf("trace          %d uops (%d committed), %d releases\n",
			m.Trace.Uops, m.Trace.Commits, m.Trace.Releases)
	}
}

type kv struct {
	k string
	v uint64
}

func sortedDesc(m map[string]uint64) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	return out
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
