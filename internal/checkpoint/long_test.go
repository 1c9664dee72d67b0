package checkpoint

import (
	"os"
	"runtime"
	"testing"
	"time"

	"atr/internal/pipeline"
	"atr/internal/workload"
)

func TestLongSpeedup(t *testing.T) {
	if os.Getenv("ATR_SAMPLE_DIAG") == "" {
		t.Skip("diag")
	}
	cfg := testConfig()
	const instr = 10000000
	for _, name := range []string{"gcc", "exchange2"} {
		p, _ := workload.ByName(name)
		prog := p.Generate()
		t0 := time.Now()
		exact := pipeline.NewWithScheduler(cfg, prog, pipeline.SchedulerEvent).Run(instr)
		ew := time.Since(t0)
		for _, plan := range []Plan{
			{Period: 100000, Window: 2000, Warmup: 500},
			{Period: 150000, Window: 2000, Warmup: 500},
			{Period: 200000, Window: 2000, Warmup: 500},
		} {
			t1 := time.Now()
			est := Run(cfg, prog, pipeline.SchedulerEvent, instr, plan)
			w := time.Since(t1)
			err := (est.Result.IPC - exact.IPC) / exact.IPC
			t.Logf("%-10s %-26s err %+5.2f%% ci ±%5.2f%% windows %3d speedup %5.1fx (%.2fs vs %.2fs)",
				name, plan, 100*err, 100*est.RelErr.IPC, est.Windows, ew.Seconds()/w.Seconds(), w.Seconds(), ew.Seconds())
		}
	}
}

func BenchmarkSampledRun(b *testing.B) {
	cfg := testConfig()
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	plan := Plan{Period: 100000, Window: 2000, Warmup: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, prog, pipeline.SchedulerEvent, 10000000, plan)
	}
}

// TestSampledWindowAllocations bounds what one detail window allocates: on
// gcc under the benchmark's plan, the bytes a 4M-instruction sampled run
// allocates beyond a 2M one, spread over the windows it adds. A window
// builds a CPU around the run's recycled predictor and hierarchy, so the
// bound fails if a window allocates its own copies of either again.
func TestSampledWindowAllocations(t *testing.T) {
	cfg := testConfig()
	p, _ := workload.ByName("gcc")
	prog := p.Generate()
	plan := Plan{Period: 100000, Window: 2000, Warmup: 500}
	run := func(instr uint64) (uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		est := Run(cfg, prog, pipeline.SchedulerEvent, instr, plan)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, est.Windows
	}
	shortBytes, shortWindows := run(2000000)
	longBytes, longWindows := run(4000000)
	extra := longWindows - shortWindows
	if extra <= 0 {
		t.Fatalf("4M run measured %d windows, 2M run %d: no extra windows to divide by", longWindows, shortWindows)
	}
	perWindow := float64(longBytes-shortBytes) / float64(extra)
	t.Logf("%.0f bytes per window over %d extra windows", perWindow, extra)
	if perWindow >= 1<<20 {
		t.Errorf("a sampled window allocates %.2f MiB, want < 1 MiB", perWindow/(1<<20))
	}
}
