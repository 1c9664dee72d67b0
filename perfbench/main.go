// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads for a fixed time, checks every operation's output
// against golden results, and prints one JSON result line:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-bin dir]
//
// Workloads:
//
//	fig10-exact    the paper's Fig 10 grid (23 profiles × {64,224} × 4
//	               schemes, 40k instructions) through sweep.Engine
//	sampled-long   BENCH_8's battery: 23 profiles, combined, 64 registers,
//	               systematic:100000/2000/500, 10M instructions
//	serve-node     single-node atrd, closed loop of 2 clients
//	serve-cluster  atrd -coordinator with two -join workers, same stream
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// separate run records spans around every call into the program, replays
// the simulator kernels, and reports the per-layer metrics. run.py builds
// this binary and atrd from source and runs it; README.md records why each
// workload exists and how steady its numbers are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit, in BENCHMARK.json order. Every run reports the whole list for its
// mode; a per-layer metric a workload does not exercise reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_instr_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"workload.generate_ms", "ms"},
	{"program.emu_ns_per_instr", "ns"},
	{"bpred.predict_ns", "ns"},
	{"bpred.warm_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.touch_ns", "ns"},
	{"core.rename_ns.baseline", "ns"},
	{"core.rename_ns.nonspec-er", "ns"},
	{"core.rename_ns.atomic", "ns"},
	{"core.rename_ns.combined", "ns"},
	{"pipeline.ns_per_instr", "ns"},
	{"pipeline.new_us", "us"},
	{"pipeline.allocs_per_kinstr", "count"},
	{"pipeline.ipc", "instr/cycle"},
	{"pipeline.rename_stalls_per_kinstr", "1/kinstr"},
	{"batch.batched_share", "ratio"},
	{"checkpoint.ff_share", "ratio"},
	{"checkpoint.windows_per_unit", "count"},
	{"checkpoint.unit_ms", "ms"},
	{"checkpoint.ff_time_share", "ratio"},
	{"checkpoint.ipc_err_pct", "%"},
	{"sweep.busy_share", "ratio"},
	{"sweep.merge_ms", "ms"},
	{"sweep.journal_append_us", "us"},
	{"obs.manifest_encode_ms", "ms"},
	{"obs.manifest_kb", "KB"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.manifest_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"server.rate_limited", "count"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.polls_per_unit", "count"},
	{"cluster.from_cache_share", "ratio"},
	{"cluster.worker_skew", "ratio"},
	{"cluster.stolen_units", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"attr.emu_share", "ratio"},
	{"attr.bpred_share", "ratio"},
	{"attr.cache_share", "ratio"},
	{"attr.core_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	binDir   string // holds the atrd binary
	workDir  string // scratch space for daemon state, removed at exit
	self     string // this binary, re-executed to time offline set-up
	golden   *goldenSet
	tr       *tracer      // nil unless traced
	kernels  *kernelCosts // kernel replays of a traced offline run

	attempted, failed int
	problems          []string           // failed self-checks and op errors (first few)
	values            map[string]float64 // metrics by name
}

// fail records a failed op or self-check; the run then reports
// correct=false. Only the first few messages are kept for stderr.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func main() {
	workload := flag.String("workload", "", "fig10-exact, sampled-long, serve-node or serve-cluster")
	seed := flag.Uint64("seed", 1, "workload seed: permutes profile order, never the set of run keys")
	seconds := flag.Float64("seconds", 20, "measurement window")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the atrd binary")
	goldenDir := flag.String("golden", filepath.Join("perfbench", "golden"), "-write-golden output directory")
	bench8 := flag.String("bench8", "BENCH_8.json", "-write-golden: BENCH_8.json, whose sampled IPCs the sampled table must reproduce")
	perturb := flag.String("perturb-golden", "", "self-test: perturb the golden entry with this label")
	probe := flag.String("probe-setup", "", "internal: build the named offline workload's grid, print ready, exit")
	writeGolden := flag.Bool("write-golden", false, "recompute the golden tables into -golden")
	verify := flag.String("verify-manifest", "", "check every record of this manifest file against the golden tables")
	flag.Parse()

	if *probe != "" {
		os.Exit(probeSetup(*probe, *seed))
	}
	if *writeGolden {
		if err := writeGoldenTables(*goldenDir, *bench8); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	gs, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *verify != "" {
		os.Exit(verifyManifestFile(gs, *verify))
	}
	if *perturb != "" {
		if err := gs.perturb(*perturb); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	body, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workDir, err := os.MkdirTemp(filepath.Dir(*binDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(workDir)

	r := &run{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		binDir:  *binDir, workDir: workDir, self: self, golden: gs,
		values: make(map[string]float64),
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := body(r); err != nil {
		// An error (as opposed to a failed op) means the workload could
		// not be driven at all: report no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.RemoveAll(workDir)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(filepath.Dir(*binDir), "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		r.tr.printSelfTimes(os.Stdout)
	}
	printResult(r)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fig10-exact":   func(r *run) error { return r.runOffline(r.golden.fig10) },
	"sampled-long":  func(r *run) error { return r.runOffline(r.golden.sampled) },
	"serve-node":    func(r *run) error { return runServe(r, false) },
	"serve-cluster": func(r *run) error { return runServe(r, true) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes a readable table, then the JSON result line last.
func printResult(r *run) {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d\n", r.workload, r.seed, r.traced, r.attempted, r.failed)
	for _, m := range list {
		v := r.values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-36s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
