package bpred

import (
	"reflect"
	"testing"
	"unsafe"

	"atr/internal/config"
	"atr/internal/program"
	"atr/internal/workload"
)

// fieldClass says what CopyFrom must do with one field.
type fieldClass int

const (
	copied   fieldClass = iota // equals the source's afterwards, sharing no backing array
	geometry                   // fixed by the config, so equal in any two predictors built from it
)

// copyClasses classifies every field reachable from Predictor, keyed
// "Type.field". A struct or pointer-to-struct field with no entry is a
// container the walk descends into; a slice is one leaf, compared element by
// element.
var copyClasses = map[string]fieldClass{
	"Predictor.condLookups": copied,
	"Predictor.condWrong":   copied,
	"Predictor.indLookups":  copied,
	"Predictor.indWrong":    copied,

	"TAGE.base":     copied,
	"TAGE.baseBits": geometry,
	"TAGE.tables":   copied,
	"TAGE.tblBits":  geometry,
	"TAGE.histLens": geometry,
	"TAGE.idxFold":  geometry,
	"TAGE.tagFold":  geometry,
	"TAGE.foldRegs": geometry,

	"GlobalHistory.bits":  copied,
	"GlobalHistory.folds": copied,

	"LoopPredictor.entries":   copied,
	"LoopPredictor.mask":      geometry,
	"LoopPredictor.overrides": copied,
	"LoopPredictor.correct":   copied,

	"Corrector.weights": copied,
	"Corrector.mask":    geometry,

	"Indirect.histTags":    copied,
	"Indirect.histTargets": copied,
	"Indirect.mask":        geometry,

	"BTB.tags":    copied,
	"BTB.targets": copied,
	"BTB.mask":    geometry,
	"BTB.hits":    copied,
	"BTB.misses":  copied,

	"RAS.stack": copied,
}

// classifiedField is one leaf of the walk: the field indexes that lead to it
// from the root struct (through pointers and struct values), their names
// joined with dots, and the leaf's class.
type classifiedField struct {
	name  string
	path  []int
	class fieldClass
}

// classifyFields walks root's fields and looks each up in classes. An
// unclassified field, or a class entry the walk never reaches, fails t.
func classifyFields(t *testing.T, root reflect.Type, classes map[string]fieldClass) []classifiedField {
	t.Helper()
	var out []classifiedField
	seen := make(map[string]bool)
	var walk func(typ reflect.Type, path []int, label string)
	walk = func(typ reflect.Type, path []int, label string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := typ.Name() + "." + f.Name
			p := append(append([]int(nil), path...), i)
			if c, ok := classes[key]; ok {
				seen[key] = true
				out = append(out, classifiedField{label + "." + f.Name, p, c})
			} else if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
				walk(f.Type.Elem(), p, label+"."+f.Name)
			} else if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, label+"."+f.Name)
			} else {
				t.Errorf("field %s is unclassified: say what CopyFrom does with it", key)
			}
		}
	}
	walk(root, nil, root.Name())
	for name := range classes {
		if !seen[name] {
			t.Errorf("class entry %s names no field reachable from %s", name, root.Name())
		}
	}
	return out
}

// fieldValue returns the field at path in *root as an interface, readable
// even when unexported.
func fieldValue(root any, path []int) any {
	v := reflect.ValueOf(root)
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface()
}

// warmOn trains p on the next n instructions of em, as functional
// fast-forward does.
func warmOn(p *Predictor, em *program.Emulator, n int) {
	var rec program.Record
	for i := 0; i < n && em.StepInto(&rec); i++ {
		if rec.Op.IsControl() {
			p.Warm(em.Prog.At(rec.PC), rec.PC, rec.Taken, rec.NextPC)
		}
	}
}

func profileEmulator(t *testing.T, name string) *program.Emulator {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %q missing", name)
	}
	return program.NewEmulator(p.Generate())
}

// TestCopyFromCoversEveryField pins CopyFrom's contract in the pattern of
// TestKeyCoversEveryConfigField: every field of a Predictor is either copied
// or fixed by the config, a copy equals its source field for field, and the
// source warming on afterwards leaves the copy alone.
func TestCopyFromCoversEveryField(t *testing.T) {
	fields := classifyFields(t, reflect.TypeOf(Predictor{}), copyClasses)
	cfg := config.GoldenCove()

	// ref keeps src's state at the copy by warming on the same stream. src
	// is copied early in its run, while its indirect target buffer still
	// misses, so that every copied field moves when it warms on.
	src, ref, dst := New(cfg), New(cfg), New(cfg)
	srcEm := profileEmulator(t, "perlbench")
	warmOn(src, srcEm, 1000)
	warmOn(ref, profileEmulator(t, "perlbench"), 1000)
	warmOn(dst, profileEmulator(t, "gcc"), 20000)
	for _, f := range fields {
		if f.class == copied && reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(src, f.path)) {
			t.Errorf("%s: equal before CopyFrom, so the test proves nothing about it", f.name)
		}
	}

	dst.CopyFrom(src)
	for _, f := range fields {
		if !reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(src, f.path)) {
			t.Errorf("%s differs from the source's after CopyFrom", f.name)
		}
	}

	warmOn(src, srcEm, 20000)
	for _, f := range fields {
		if f.class != copied {
			continue
		}
		if reflect.DeepEqual(fieldValue(src, f.path), fieldValue(ref, f.path)) {
			t.Errorf("%s: the source did not change as it warmed on, so sharing goes unseen", f.name)
		}
		if !reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(ref, f.path)) {
			t.Errorf("%s: the copy moved with its source as the source warmed on: they share storage", f.name)
		}
	}
}

// TestWarmMatchesPredictResolve pins Warm's contract: on every profile, a
// predictor warmed in order stays equal, field for field, to one driven
// through the detailed frontend's protocol one instruction at a time
// (PredictInto, Resolve, and Recover on a mispredict).
func TestWarmMatchesPredictResolve(t *testing.T) {
	const instr = 200000
	cfg := config.GoldenCove()
	for _, prof := range workload.Profiles() {
		em := program.NewEmulator(prof.Generate())
		warm, detail := New(cfg), New(cfg)
		var rec program.Record
		var bp BranchPrediction
		for i := 0; i < instr && em.StepInto(&rec); i++ {
			if !rec.Op.IsControl() {
				continue
			}
			in := em.Prog.At(rec.PC)
			warm.Warm(in, rec.PC, rec.Taken, rec.NextPC)
			detail.PredictInto(in, rec.PC, &bp)
			if detail.Resolve(in, rec.PC, &bp, rec.Taken, rec.NextPC) {
				detail.Recover(in, rec.PC, &bp, rec.Taken)
			}
			if w, d := &warm.Tage.hist, &detail.Tage.hist; w.bits != d.bits || w.folds != d.folds {
				t.Fatalf("%s: histories diverged at instruction %d", prof.Name, i)
			}
		}
		if !reflect.DeepEqual(warm, detail) {
			t.Errorf("%s: warmed predictor differs from the predict/resolve one after %d instructions", prof.Name, instr)
		}
	}
}
