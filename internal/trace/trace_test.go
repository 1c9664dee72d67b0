package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"atr/internal/isa"
	"atr/internal/program"
	"atr/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{PC: 0, Op: isa.OpALU},
		{PC: 1, Op: isa.OpLoad, EA: 0x123456},
		{PC: 2, Op: isa.OpBranch, Taken: true},
		{PC: 100000, Op: isa.OpStore, EA: 1 << 40},
		{PC: 3, Op: isa.OpRet, Taken: true},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX\x01rest"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("ATRT\x63"))); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{PC: 300, Op: isa.OpLoad, EA: 1 << 30})
	w.Flush()
	data := buf.Bytes()
	r, _ := NewReader(bytes.NewReader(data[:len(data)-1]))
	if _, err := r.Read(); err == nil {
		t.Error("truncated record read successfully")
	}
}

// Property: arbitrary records survive a round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, ops []uint8) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		var want []Record
		for i := range pcs {
			op := isa.Op(1) // default alu
			if i < len(ops) {
				op = isa.Op(ops[i] % uint8(isa.NumOps))
			}
			rec := Record{PC: pcs[i], Op: op, Taken: pcs[i]%3 == 0}
			if op.IsMem() {
				rec.EA = pcs[i] * 8
			}
			w.Write(rec)
			want = append(want, rec)
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, wr := range want {
			got, err := r.Read()
			if err != nil || got != wr {
				return false
			}
		}
		_, err = r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerSimpleAtomicRegion(t *testing.T) {
	b := program.NewBuilder(1, 2)
	b.ALU(isa.R1, isa.R2, isa.RegInvalid, 0) // alloc r1 (from initial: counted when redefined)
	b.ALU(isa.R3, isa.R1, isa.RegInvalid, 0) // consume r1
	b.ALU(isa.R1, isa.R4, isa.RegInvalid, 0) // redefine r1: atomic, 1 consumer
	p := b.MustBuild()
	a := NewAnalyzer(p, isa.ClassGPR)
	e := program.NewEmulator(p)
	for {
		rec, ok := e.Step()
		if !ok {
			break
		}
		a.Step(FromProgram(rec))
	}
	res := a.Result()
	// Redefinitions observed: initial r1 (by inst 0, zero consumers),
	// initial r3 (by inst 1, zero consumers), and inst 0's r1 (by inst 2,
	// one consumer). All atomic: no flusher executes.
	if res.Allocations != 3 {
		t.Fatalf("allocations = %d, want 3", res.Allocations)
	}
	if res.Atomic != 1.0 {
		t.Errorf("atomic = %v, want 1.0", res.Atomic)
	}
	if res.Consumers.Bucket(1) != 1 {
		t.Errorf("expected one single-consumer region, hist bucket(1) = %d", res.Consumers.Bucket(1))
	}
	if res.Consumers.Bucket(0) != 2 {
		t.Errorf("expected two zero-consumer regions, hist bucket(0) = %d", res.Consumers.Bucket(0))
	}
}

func TestAnalyzerBranchPoisons(t *testing.T) {
	b := program.NewBuilder(1, 2)
	b.ALU(isa.R1, isa.R2, isa.RegInvalid, 0)
	b.Cmp(isa.R1, isa.RegInvalid, 0)
	b.Branch(program.PredNotZero, "next")
	b.Label("next")
	b.ALU(isa.R1, isa.R4, isa.RegInvalid, 0) // redefine across a branch
	p := b.MustBuild()
	a := NewAnalyzer(p, isa.ClassGPR)
	e := program.NewEmulator(p)
	for {
		rec, ok := e.Step()
		if !ok {
			break
		}
		a.Step(FromProgram(rec))
	}
	res := a.Result()
	// Three allocations are redefined: initial r1 and initial flags
	// (before the branch: atomic) and inst 0's r1, whose region spans the
	// branch — not atomic, but non-except (no load/store/div inside).
	if res.Allocations != 3 {
		t.Fatalf("allocations = %d, want 3", res.Allocations)
	}
	if want := 2.0 / 3.0; res.Atomic != want {
		t.Errorf("atomic = %v, want %v (branch poisons the spanning region)", res.Atomic, want)
	}
	if res.NonExcept != 1.0 {
		t.Errorf("non-except = %v, want 1.0", res.NonExcept)
	}
}

// TestAnalyzerAgreesWithEngine cross-validates the two independent region
// classifiers: the trace analyzer and the renaming engine's ledger, on a
// full workload. Small differences are expected (the engine observes the
// speculative stream with wrong-path poisoning and windowing), so the check
// is a loose band.
func TestAnalyzerAgreesWithEngine(t *testing.T) {
	p := workload.Micro(5)
	prog := p.Generate()
	res := AnalyzeProgram(prog, isa.ClassGPR, 30000)
	if res.Allocations < 1000 {
		t.Fatalf("too few allocations: %d", res.Allocations)
	}
	if res.Atomic <= 0 || res.Atomic > 0.9 {
		t.Errorf("atomic ratio %v implausible", res.Atomic)
	}
	if res.NonBranch < res.Atomic || res.NonExcept < res.Atomic {
		t.Error("cumulative ratios must bound the atomic ratio")
	}
}

func TestFromProgram(t *testing.T) {
	pr := program.Record{PC: 9, Op: isa.OpLoad, Outcome: program.Outcome{EA: 64}}
	r := FromProgram(pr)
	if r.PC != 9 || r.Op != isa.OpLoad || r.EA != 64 {
		t.Errorf("FromProgram = %+v", r)
	}
}
