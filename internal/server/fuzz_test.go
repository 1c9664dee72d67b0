package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"atr/internal/checkpoint"
)

// FuzzJobSpec feeds the admission path arbitrary request bodies: each is
// decoded as handleSubmit decodes one, then resolved and expanded into a job
// as submit does. No input may panic, and a job admission accepts must be
// runnable: unit keys unique, every unit's config valid and its sample mode
// parseable, so that no accepted unit is bound to fail on a worker.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range badSpecs {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"run","bench":"gcc","scheme":"combined","regs":64}`))
	f.Add([]byte(`{"kind":"grid","grid":"micro","instr":1500}`))
	f.Add([]byte(`{"kind":"grid","profiles":["gcc","mcf"],"phys_regs":[64,224],"schemes":["baseline","combined"],` +
		`"sample_modes":["exact","systematic:100000/2000/500"]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		g, err := spec.ResolveGrid(1000)
		if err != nil {
			return
		}
		j, err := newJob("j000001", "fuzz", spec, g)
		if err != nil {
			return
		}
		if len(j.byKey) != len(j.units) {
			t.Fatalf("accepted job has %d units but %d distinct keys", len(j.units), len(j.byKey))
		}
		for _, u := range j.units {
			if err := u.Config.Validate(); err != nil {
				t.Fatalf("accepted unit %d has an invalid config: %v", u.Seq, err)
			}
			if u.Sample != "" {
				if _, err := checkpoint.ParseMode(u.Sample); err != nil {
					t.Fatalf("accepted unit %d has an unparseable sample mode: %v", u.Seq, err)
				}
			}
		}
	})
}
