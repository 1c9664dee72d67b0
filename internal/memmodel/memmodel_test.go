package memmodel

import (
	"reflect"
	"testing"
)

func mustShape(t *testing.T, name string) Shape {
	t.Helper()
	sh, ok := ShapeByName(name)
	if !ok {
		t.Fatalf("shape %q not registered", name)
	}
	return sh
}

// outcome builds an Outcome from sparse register and memory assignments.
func outcome(regs map[int]uint64, mem map[int]uint64) Outcome {
	var o Outcome
	for r, v := range regs {
		o.Regs[r] = v
	}
	for a, v := range mem {
		o.Mem[a] = v
	}
	return o
}

// TestSCSubsetOfTSO: relaxing SC to TSO only ever adds outcomes.
func TestSCSubsetOfTSO(t *testing.T) {
	for _, sh := range Shapes() {
		sc, tso := sh.Prog.SCOutcomes(), sh.Prog.TSOOutcomes()
		if len(sc) == 0 {
			t.Errorf("%s: empty SC set", sh.Name)
		}
		if !sc.Subset(tso) {
			t.Errorf("%s: SC set not a subset of TSO set", sh.Name)
		}
	}
}

// TestClassicLitmusFacts pins the canonical allowed/forbidden outcomes.
func TestClassicLitmusFacts(t *testing.T) {
	regs := func(vals ...uint64) map[int]uint64 {
		m := map[int]uint64{}
		for i, v := range vals {
			m[i] = v
		}
		return m
	}
	tests := []struct {
		shape   string
		o       Outcome
		inSC    bool
		inTSO   bool
		comment string
	}{
		{"sb", outcome(regs(0, 0), map[int]uint64{0: 1, 1: 1}), false, true,
			"store buffering: both loads see 0 only with store buffers"},
		{"sb-fence", outcome(regs(0, 0), map[int]uint64{0: 1, 1: 1}), false, false,
			"fences drain the buffers: 0/0 forbidden even under TSO"},
		{"mp", outcome(map[int]uint64{0: 1, 1: 0}, map[int]uint64{0: 1, 1: 1}), false, false,
			"message passing: flag observed but payload stale is forbidden"},
		{"lb", outcome(regs(1, 1), map[int]uint64{0: 1, 1: 1}), false, false,
			"load buffering: out-of-thin-air values are forbidden"},
		{"corr", outcome(map[int]uint64{0: 1, 1: 0}, map[int]uint64{0: 1}), false, false,
			"coherence: reads of one location never go new-to-old"},
		{"corr", outcome(map[int]uint64{0: 0, 1: 1}, map[int]uint64{0: 1}), true, true,
			"old-to-new is the allowed direction"},
		{"coww", outcome(regs(2, 2), map[int]uint64{0: 2}), true, true,
			"final memory holds the program-order-younger store"},
		{"coww", outcome(regs(0, 0), map[int]uint64{0: 1}), false, false,
			"same-address stores may not commit out of order"},
		{"corw", outcome(regs(1), map[int]uint64{0: 1}), false, false,
			"a load may not observe its own thread's later store",
		},
	}
	for _, tc := range tests {
		sh := mustShape(t, tc.shape)
		sc, tso := sh.Prog.SCOutcomes(), sh.Prog.TSOOutcomes()
		if got := sc.Contains(tc.o); got != tc.inSC {
			t.Errorf("%s: SC contains %v = %v, want %v (%s)", tc.shape, tc.o, got, tc.inSC, tc.comment)
		}
		if got := tso.Contains(tc.o); got != tc.inTSO {
			t.Errorf("%s: TSO contains %v = %v, want %v (%s)", tc.shape, tc.o, got, tc.inTSO, tc.comment)
		}
	}
}

// TestSBSplitsTheModels: sb is the discriminating shape — its TSO set must be
// strictly larger than its SC set, and exactly by the 0/0 outcome.
func TestSBSplitsTheModels(t *testing.T) {
	sh := mustShape(t, "sb")
	sc, tso := sh.Prog.SCOutcomes(), sh.Prog.TSOOutcomes()
	if len(tso) != len(sc)+1 {
		t.Fatalf("sb: |TSO| = %d, |SC| = %d, want exactly one extra TSO outcome", len(tso), len(sc))
	}
}

// TestInterleavingEnumeration: the unranking is a bijection onto the distinct
// interleavings, and the union of their SC executions is exactly the SC set.
func TestInterleavingEnumeration(t *testing.T) {
	for _, sh := range Shapes() {
		p := sh.Prog
		cnt := p.InterleavingCount()
		if cnt <= 0 {
			t.Fatalf("%s: interleaving count %d", sh.Name, cnt)
		}
		seen := map[string]struct{}{}
		union := OutcomeSet{}
		for n := 0; n < cnt; n++ {
			seq := p.Interleaving(n)
			key := ""
			for _, x := range seq {
				key += string(rune('0' + x))
			}
			if _, dup := seen[key]; dup {
				t.Fatalf("%s: interleaving %d duplicates sequence %s", sh.Name, n, key)
			}
			seen[key] = struct{}{}
			union.Add(p.RunInterleaving(seq))
		}
		if sc := p.SCOutcomes(); !union.Equal(sc) {
			t.Errorf("%s: union over %d interleavings (%d outcomes) != SC set (%d outcomes)",
				sh.Name, cnt, len(union), len(sc))
		}
	}
}

func TestInterleavingCountKnownValues(t *testing.T) {
	// Two threads of 2 ops each: C(4,2) = 6.
	sb := mustShape(t, "sb").Prog
	if got := sb.InterleavingCount(); got != 6 {
		t.Errorf("sb interleavings = %d, want 6", got)
	}
	// Single thread: exactly one order.
	fy := mustShape(t, "fwd-youngest").Prog
	if got := fy.InterleavingCount(); got != 1 {
		t.Errorf("fwd-youngest interleavings = %d, want 1", got)
	}
}

func TestValidateBounds(t *testing.T) {
	bad := []Program{
		{},                                  // no threads
		{Threads: []Thread{{}, {}, {}, {}}}, // too many threads
		{Threads: []Thread{{St(0, 1), St(0, 1), St(0, 1), St(0, 1), St(0, 1), St(0, 1), St(0, 1)}}}, // too many ops
		{Threads: []Thread{{St(MaxAddrs, 1)}}},                                                      // address out of range
		{Threads: []Thread{{Ld(0, MaxRegs)}}},                                                       // register out of range
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid program", i)
		}
	}
	for _, sh := range Shapes() {
		if err := sh.Prog.Validate(); err != nil {
			t.Errorf("%s: Validate rejected registry shape: %v", sh.Name, err)
		}
	}
}

// TestFuzzEncodingRoundTrip: every registry shape survives encode→decode
// unchanged, so the fuzz seed corpus reproduces the litmus family exactly.
func TestFuzzEncodingRoundTrip(t *testing.T) {
	for _, sh := range Shapes() {
		for ti, th := range sh.Prog.Threads {
			got := DecodeFuzzThread(EncodeFuzzThread(th))
			if !reflect.DeepEqual(got, th) {
				t.Errorf("%s thread %d: round trip %+v != original %+v", sh.Name, ti, got, th)
			}
		}
	}
}

func TestDecodeFuzzProgramAlwaysBounded(t *testing.T) {
	words := []uint64{0, ^uint64(0), 0x0123_4567_89ab_cdef, 1 << 56, 0xff<<56 | 0xffff}
	for _, a := range words {
		for _, b := range words {
			p := DecodeFuzzProgram(a, b)
			if len(p.Threads) == 0 {
				continue // empty programs are rejected by Validate at the call site
			}
			if err := p.Validate(); err != nil {
				t.Errorf("DecodeFuzzProgram(%#x, %#x) invalid: %v", a, b, err)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	if name, n, err := ParseSpec("sb#3"); err != nil || name != "sb" || n != 3 {
		t.Errorf("ParseSpec(sb#3) = %q, %d, %v", name, n, err)
	}
	if name, n, err := ParseSpec("mp"); err != nil || name != "mp" || n != 0 {
		t.Errorf("ParseSpec(mp) = %q, %d, %v", name, n, err)
	}
	for _, bad := range []string{"sb#-1", "sb#x", "sb#"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestProgramForErrors(t *testing.T) {
	if _, err := ProgramFor("nonesuch"); err == nil {
		t.Error("ProgramFor accepted unknown shape")
	}
	if _, err := ProgramFor("sb#999"); err == nil {
		t.Error("ProgramFor accepted out-of-range interleaving")
	}
	if _, err := ProgramFor("sb#0"); err != nil {
		t.Errorf("ProgramFor(sb#0): %v", err)
	}
}
