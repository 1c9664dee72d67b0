package experiments

import (
	"testing"

	"atr/internal/config"
	"atr/internal/workload"
)

// TestPrefetchWorkerBound is the regression test for the old unbounded
// goroutine fan-out: a full 23-profile × 8-config prefetch (the Fig 1/11
// grid shape) must never have more than Workers tasks in flight at once.
// The high-water mark is tracked atomically inside Prefetch itself.
func TestPrefetchWorkerBound(t *testing.T) {
	const workers = 4
	r := NewRunner(300)
	r.Workers = workers

	profiles := workload.Profiles()
	if len(profiles) != 23 {
		t.Fatalf("profile set has %d entries, want 23", len(profiles))
	}
	cfgs := make([]config.Config, len(RFSizes))
	for i, s := range RFSizes {
		cfgs[i] = config.GoldenCove().WithPhysRegs(s)
	}

	r.Prefetch(profiles, cfgs)

	runs, _, _ := r.Totals()
	if want := len(profiles) * len(cfgs); runs != want {
		t.Errorf("prefetch executed %d unique runs, want %d", runs, want)
	}
	high := r.maxInFlight.Load()
	if high < 1 || high > workers {
		t.Errorf("in-flight high-water mark = %d, want in [1, %d]", high, workers)
	}
	if left := r.inFlight.Load(); left != 0 {
		t.Errorf("%d runs still counted in flight after Prefetch returned", left)
	}
}
