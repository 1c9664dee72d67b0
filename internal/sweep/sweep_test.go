package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atr/internal/obs"
	"atr/internal/pipeline"
)

// encode renders a manifest to its canonical bytes.
func encode(t *testing.T, m *Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode manifest: %v", err)
	}
	return buf.Bytes()
}

// testGrid is a small fast grid for engine tests.
func testGrid() Grid { return MicroGrid(600) }

func TestPoolExecutesEachItemOnceWithinBound(t *testing.T) {
	const workers, n = 4, 97
	p := NewPool(workers)
	var counts [n]atomic.Int64
	var inFlight, high atomic.Int64
	err := p.ForEach(context.Background(), n, func(_, i int) {
		cur := inFlight.Add(1)
		for {
			h := high.Load()
			if cur <= h || high.CompareAndSwap(h, cur) {
				break
			}
		}
		// Uneven work so stealing actually happens.
		if i%7 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		counts[i].Add(1)
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("item %d executed %d times, want 1", i, got)
		}
	}
	if h := high.Load(); h > workers {
		t.Errorf("concurrency high-water %d exceeds worker bound %d", h, workers)
	}
}

func TestPoolZeroWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if w := NewPool(0).Workers(); w <= 0 {
		t.Fatalf("Workers() = %d, want positive", w)
	}
}

// TestSweepDeterminism is the tentpole contract: the same grid at worker
// counts 1, 4, and 16 yields byte-identical manifests.
func TestSweepDeterminism(t *testing.T) {
	g := testGrid()
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		eng := New(Options{Workers: workers})
		m, err := eng.Execute(context.Background(), g, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Totals.Failed != 0 || m.Totals.Done != m.Grid.Total {
			t.Fatalf("workers=%d: totals %+v, want all %d done", workers, m.Totals, m.Grid.Total)
		}
		got := encode(t, m)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: manifest bytes differ from workers=1", workers)
		}
	}
	// The canonical bytes must round-trip through the validator.
	if _, err := DecodeManifest(bytes.NewReader(want)); err != nil {
		t.Fatalf("decode canonical manifest: %v", err)
	}
}

// TestSweepResume kills a journal mid-write (whole records dropped plus a
// torn final line) and proves the resumed sweep reconstructs the exact
// manifest of the uninterrupted run while re-executing only missing runs.
// A Detail grid must resume to the same bytes too: its records' Details
// survive the journal.
func TestSweepResume(t *testing.T) {
	detail := testGrid()
	detail.Detail = true
	plain := testGrid().Units()
	for i, u := range detail.Units() {
		if u.Key == plain[i].Key {
			t.Fatalf("Detail unit %d shares its key with the plain unit: a plain journal would resume it", i)
		}
	}
	for _, g := range []Grid{testGrid(), detail} {
		t.Run(fmt.Sprintf("detail=%v", g.Detail), func(t *testing.T) { testSweepResume(t, g) })
	}
}

func testSweepResume(t *testing.T, g Grid) {
	// detailed checks that every record carries a Detail exactly when the
	// grid asks for one: equal bytes alone would miss a Detail that the
	// journal and the manifest both drop.
	detailed := func(m *Manifest) {
		t.Helper()
		for _, r := range m.Runs {
			if (r.Detail != nil) != g.Detail {
				t.Fatalf("run %d: Detail %v on a grid with Detail %v", r.Seq, r.Detail, g.Detail)
			}
		}
	}
	var journal bytes.Buffer
	eng := New(Options{Workers: 4, Journal: &journal})
	full, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}
	detailed(full)
	wantBytes := encode(t, full)

	// Truncate: keep the header plus 9 records, then a torn partial line —
	// the on-disk shape of a sweep killed mid-write.
	lines := strings.Split(strings.TrimRight(journal.String(), "\n"), "\n")
	if len(lines) != 1+len(g.Units()) {
		t.Fatalf("journal has %d lines, want header + %d records", len(lines), len(g.Units()))
	}
	const keep = 9
	truncated := strings.Join(lines[:1+keep], "\n") + "\n" + `{"key":"torn-mid-wr`

	j, err := LoadJournal(strings.NewReader(truncated))
	if err != nil {
		t.Fatalf("load truncated journal: %v", err)
	}
	if j.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (the torn line)", j.Dropped)
	}
	if len(j.Records) != keep {
		t.Fatalf("journal kept %d records, want %d", len(j.Records), keep)
	}

	var journal2 bytes.Buffer
	eng2 := New(Options{Workers: 7, Journal: &journal2, Resume: j})
	resumed, err := eng2.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	detailed(resumed)
	if !bytes.Equal(encode(t, resumed), wantBytes) {
		t.Error("resumed manifest differs from uninterrupted manifest")
	}
	info := eng2.Info()
	if info.Resumed != keep {
		t.Errorf("Resumed = %d, want %d", info.Resumed, keep)
	}
	if info.JournalFlushes != 1+len(full.Runs) {
		t.Errorf("JournalFlushes = %d, want header + %d records", info.JournalFlushes, len(full.Runs))
	}

	// The resumed journal is self-contained: resuming from it executes
	// nothing at all and still reproduces the manifest.
	j2, err := LoadJournal(bytes.NewReader(journal2.Bytes()))
	if err != nil {
		t.Fatalf("load resumed journal: %v", err)
	}
	eng3 := New(Options{Workers: 2, Resume: j2})
	again, err := eng3.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("journal-only sweep: %v", err)
	}
	detailed(again)
	if !bytes.Equal(encode(t, again), wantBytes) {
		t.Error("journal-only manifest differs from uninterrupted manifest")
	}
	if got := eng3.Info().Resumed; got != len(full.Runs) {
		t.Errorf("journal-only Resumed = %d, want %d", got, len(full.Runs))
	}
	for _, s := range eng3.Info().Shards {
		if s.Runs != 0 {
			t.Errorf("worker %d re-executed %d runs despite a complete journal", s.Worker, s.Runs)
		}
	}
}

func TestSweepInjectPanic(t *testing.T) {
	g := testGrid()
	const poisoned = 3 // 1-based: grid seq 2
	eng := New(Options{Workers: 4, Retries: 2, InjectPanic: poisoned})
	m, err := eng.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("sweep with injected panic: %v", err)
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
	if bad.Result.Cycles != 0 {
		t.Errorf("failed run carries a result: %+v", bad.Result)
	}
	info := eng.Info()
	if info.Retried != 2 {
		t.Errorf("Retried = %d, want 2", info.Retried)
	}
	for i, r := range m.Runs {
		if i != poisoned-1 && r.Err != "" {
			t.Errorf("run %d failed collaterally: %s", i, r.Err)
		}
	}
}

// TestSweepRetryRecovers proves a transiently failing run is retried and
// recorded as a success with its attempt count.
func TestSweepRetryRecovers(t *testing.T) {
	g := testGrid()
	flakySeq := 5
	var failed atomic.Bool
	sim := Sim(g.Instr)
	fn := func(ctx context.Context, u Unit) (pipeline.Result, error) {
		if u.Seq == flakySeq && !failed.Swap(true) {
			return pipeline.Result{}, fmt.Errorf("transient: connection reset by simulator")
		}
		return sim(ctx, u)
	}
	eng := New(Options{Workers: 4, Retries: 1, Backoff: time.Millisecond})
	m, err := eng.Execute(context.Background(), g, fn)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if m.Totals.Failed != 0 {
		t.Fatalf("totals %+v, want no failures", m.Totals)
	}
	if got := m.Runs[flakySeq].Attempts; got != 2 {
		t.Errorf("flaky run attempts = %d, want 2", got)
	}
	if eng.Info().Retried != 1 {
		t.Errorf("Retried = %d, want 1", eng.Info().Retried)
	}
	// Retries must not leak into the deterministic result: compare against
	// a clean run ignoring the attempt counts.
	clean, err := New(Options{Workers: 1}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	for i := range m.Runs {
		a, b := m.Runs[i], clean.Runs[i]
		a.Attempts = b.Attempts
		if a != b {
			t.Errorf("run %d diverged after retry:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

// TestSweepCancel cancels mid-sweep and proves (a) Execute reports the
// cancellation, (b) the journal holds everything that completed, and (c) a
// resumed sweep converges to the uninterrupted manifest.
func TestSweepCancel(t *testing.T) {
	g := testGrid()
	want, err := New(Options{Workers: 2}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	wantBytes := encode(t, want)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var journal lockedBuffer
	eng := New(Options{Workers: 2, Journal: &journal, OnProgress: func(p obs.SweepProgress) {
		if p.Done >= 6 {
			cancel()
		}
	}})
	if _, err := eng.Execute(ctx, g, nil); err != context.Canceled {
		t.Fatalf("cancelled Execute error = %v, want context.Canceled", err)
	}

	j, err := LoadJournal(strings.NewReader(journal.String()))
	if err != nil {
		t.Fatalf("load journal of cancelled sweep: %v", err)
	}
	if len(j.Records) < 6 {
		t.Fatalf("journal has %d records, want >= 6", len(j.Records))
	}
	resumed, err := New(Options{Workers: 4, Resume: j}).Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if !bytes.Equal(encode(t, resumed), wantBytes) {
		t.Error("post-cancel resumed manifest differs from uninterrupted manifest")
	}
}

// TestSweepCancelStopsInFlightPromptly pins the drain contract the serving
// layer depends on: once the context is cancelled, Execute returns as soon
// as the in-flight runs notice — it does not start queued work, and a
// RunFunc that honours ctx unblocks the whole sweep promptly.
func TestSweepCancelStopsInFlightPromptly(t *testing.T) {
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var started atomic.Int32
	release := make(chan struct{})
	fn := func(ctx context.Context, u Unit) (pipeline.Result, error) {
		if started.Add(1) == 1 {
			close(release) // first run is in flight: trigger the cancel
		}
		<-ctx.Done() // a ctx-honouring run blocks until cancellation
		return pipeline.Result{}, ctx.Err()
	}

	eng := New(Options{Workers: 2})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Execute(ctx, g, fn)
		done <- err
	}()

	<-release
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Execute error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not return within 5s of cancellation")
	}
	// Only the runs already in flight at cancel time may have started: the
	// pool must not pick up queued items afterwards.
	if n := started.Load(); n > 2 {
		t.Errorf("%d runs started, want <= 2 (the worker count)", n)
	}
}

// lockedBuffer makes bytes.Buffer safe for the engine's journal writes
// racing the test's final read.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestResumeJournalGridMismatch(t *testing.T) {
	g := testGrid()
	var journal bytes.Buffer
	if _, err := New(Options{Workers: 2, Journal: &journal}).Execute(context.Background(), g, nil); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	j, err := LoadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	other := Fig10Grid(g.Instr)
	if _, err := New(Options{Resume: j}).Execute(context.Background(), other, nil); err == nil {
		t.Error("resuming a fig10 grid from a micro journal did not fail")
	}
	j.Instr++
	if _, err := New(Options{Resume: j}).Execute(context.Background(), g, nil); err == nil {
		t.Error("resuming with a different instruction budget did not fail")
	}
}

// TestDetailRefusals: a Detail is read off an exact run's lifetime ledger,
// and only the engine's own run function returns it to the record. So a
// sampled Detail unit fails, and a Detail grid with a caller's RunFunc is
// refused before anything runs.
func TestDetailRefusals(t *testing.T) {
	sampled := testGrid()
	sampled.Detail = true
	sampled.SampleModes = []string{"systematic:1000/200/50"}
	caller := testGrid()
	caller.Detail = true
	for _, tc := range []struct {
		name string
		g    Grid
		fn   RunFunc
		want string
	}{
		{"sampled unit", sampled, nil, "only an exact run"},
		{"caller's RunFunc", caller, Sim(caller.Instr), "engine's own run function"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Options{Retries: 0}).Execute(context.Background(), tc.g, tc.fn)
			if err == nil {
				if m.Totals.Done != 0 {
					t.Fatalf("%d of %d runs succeeded", m.Totals.Done, len(m.Runs))
				}
				err = fmt.Errorf("%s", m.Runs[0].Err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadJournalRejectsGarbage(t *testing.T) {
	if _, err := LoadJournal(strings.NewReader("")); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := LoadJournal(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := LoadJournal(strings.NewReader(`{"schema":"atr-run-manifest","version":1}` + "\n")); err == nil {
		t.Error("wrong schema accepted")
	}
}

// TestGridKeysUnique pins that every preset grid has pairwise-distinct run
// keys — the property journals and the memo cache rely on.
func TestGridKeysUnique(t *testing.T) {
	for _, g := range []Grid{MicroGrid(0), Fig10Grid(0), FullGrid(0), LitmusGrid(0)} {
		seen := make(map[string]int)
		for _, u := range g.Units() {
			if prev, dup := seen[u.Key]; dup {
				t.Errorf("grid %s: units %d and %d share key %s", g.Name, prev, u.Seq, u.Key)
			}
			seen[u.Key] = u.Seq
		}
		if len(seen) != g.info().Total {
			t.Errorf("grid %s: %d unique keys, GridInfo.Total says %d", g.Name, len(seen), g.info().Total)
		}
	}
}

// TestLitmusGridRuns executes a slice of the litmus grid end to end through
// the standard RunFunc: every litmus unit must simulate cleanly (short
// programs halt well before the budget) and resolve via GridByName.
func TestLitmusGridRuns(t *testing.T) {
	g, err := GridByName("litmus", 0)
	if err != nil {
		t.Fatal(err)
	}
	units := g.Units()
	if len(units) == 0 {
		t.Fatal("litmus grid is empty")
	}
	run := Sim(g.Instr)
	for _, u := range units[:8] {
		res, err := run(context.Background(), u)
		if err != nil {
			t.Fatalf("unit %s (%s): %v", u.Key, u.Profile.Name, err)
		}
		if !res.Halted || res.Committed == 0 {
			t.Errorf("unit %s (%s): halted=%v committed=%d", u.Key, u.Profile.Name, res.Halted, res.Committed)
		}
	}
	if _, err := GridByName("nonesuch", 0); err == nil || !strings.Contains(err.Error(), "litmus") {
		t.Errorf("GridByName error should list the litmus preset: %v", err)
	}
}
