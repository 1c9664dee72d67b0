package cache

import (
	"reflect"
	"testing"
	"unsafe"

	"atr/internal/config"
	"atr/internal/isa"
	"atr/internal/program"
	"atr/internal/workload"
)

// fieldClass says what CopyFrom must do with one field.
type fieldClass int

const (
	copied   fieldClass = iota // equals the source's afterwards, sharing no backing array
	geometry                   // fixed by the config, so equal in any two hierarchies built from it
	reset                      // back to its freshly built value
	scratch                    // work storage no call reads from an earlier one
)

// copyClasses classifies every field reachable from Hierarchy, keyed
// "Type.field". A pointer-to-struct field with no entry is a container the
// walk descends into; a slice is one leaf, compared element by element.
var copyClasses = map[string]fieldClass{
	"Hierarchy.cfg":           geometry,
	"Hierarchy.mshrs":         reset,
	"Hierarchy.DemandMisses":  copied,
	"Hierarchy.PrefetchFills": copied,

	"Cache.sets":      geometry,
	"Cache.ways":      geometry,
	"Cache.lineShift": geometry,
	"Cache.chunks":    copied,
	"Cache.Hits":      copied,
	"Cache.Misses":    copied,

	"StreamPrefetcher.entries":   copied,
	"StreamPrefetcher.degree":    geometry,
	"StreamPrefetcher.threshold": geometry,
	"StreamPrefetcher.scratch":   scratch,
}

// classifiedField is one leaf of the walk: the field indexes that lead to it
// from the root struct (through pointers), their names joined with dots, and
// the leaf's class.
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
	v := reflect.ValueOf(root).Elem()
	for k, i := range path {
		if k > 0 {
			v = v.Elem() // every container below the root is a pointer
		}
		v = v.Field(i)
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface()
}

// warmOn applies the next n instructions of em to h: functionally, as
// fast-forward does, or with timing (one cycle per instruction), as a
// detailed pipeline does, which also books MSHRs. Both paths touch stores as
// writes, so dirty bits take part.
func warmOn(h *Hierarchy, em *program.Emulator, n int, timed bool) {
	var rec program.Record
	for i := 0; i < n && em.StepInto(&rec); i++ {
		now := uint64(i)
		if timed {
			h.AccessInst(rec.PC*4, now)
		} else {
			h.TouchInst(rec.PC * 4)
		}
		if rec.Op != isa.OpLoad && rec.Op != isa.OpStore {
			continue
		}
		if timed {
			h.AccessData(rec.EA, rec.Op == isa.OpStore, now)
		} else {
			h.TouchData(rec.EA, rec.Op == isa.OpStore)
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
// TestKeyCoversEveryConfigField: every field of a Hierarchy is copied, fixed
// by the config, reset or scratch; a copy equals its source in every copied
// field and a fresh hierarchy in every reset one; and the source warming on
// afterwards leaves the copy alone.
func TestCopyFromCoversEveryField(t *testing.T) {
	fields := classifyFields(t, reflect.TypeOf(Hierarchy{}), copyClasses)
	// Small caches make every level hit and miss within a short run, and a
	// sparse two-way LLC leaves chunks that only one side materializes.
	cfg := config.GoldenCove()
	cfg.L1I.SizeBytes, cfg.L1I.Ways = 4<<10, 2
	cfg.L1D.SizeBytes, cfg.L1D.Ways = 4<<10, 2
	cfg.L2.SizeBytes, cfg.L2.Ways = 16<<10, 4
	cfg.LLC.SizeBytes, cfg.LLC.Ways = 1<<20, 2

	// ref keeps src's state at the copy by warming on the same stream.
	src, ref, dst, fresh := NewHierarchy(cfg), NewHierarchy(cfg), NewHierarchy(cfg), NewHierarchy(cfg)
	srcEm := profileEmulator(t, "lbm")
	warmOn(src, srcEm, 10000, false)
	warmOn(ref, profileEmulator(t, "lbm"), 10000, false)
	warmOn(dst, profileEmulator(t, "mcf"), 20000, true)
	for _, f := range fields {
		switch {
		case f.class == copied && reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(src, f.path)),
			f.class == reset && reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(fresh, f.path)):
			t.Errorf("%s: already as CopyFrom must leave it, so the test proves nothing about it", f.name)
		}
	}
	untouched := 0
	for i := range src.LLC.chunks {
		if src.LLC.chunks[i].tags == nil && dst.LLC.chunks[i].tags != nil {
			untouched++
		}
	}
	if untouched == 0 {
		t.Error("no LLC chunk is untouched in the source and materialized in the copy")
	}

	dst.CopyFrom(src)
	for _, f := range fields {
		want, whose := src, "the source's"
		switch f.class {
		case reset:
			want, whose = fresh, "a fresh hierarchy's"
		case scratch:
			continue
		}
		if !reflect.DeepEqual(fieldValue(dst, f.path), fieldValue(want, f.path)) {
			t.Errorf("%s differs from %s after CopyFrom", f.name, whose)
		}
	}

	warmOn(src, srcEm, 20000, false)
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
