package sweep

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"
)

// FuzzLoadJournal feeds LoadJournal arbitrary bytes, the shape of a journal
// torn or corrupted on disk. Every input must give an error or a Journal,
// never a panic; and a loaded journal written back out with
// AppendJournalHeader and AppendJournalRecord must reload equal, dropping no
// line.
func FuzzLoadJournal(f *testing.F) {
	// The inputs TestLoadJournalRejectsGarbage rejects.
	f.Add([]byte(""))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"schema":"atr-run-manifest","version":1}` + "\n"))
	// A valid journal: a header and one executed record.
	g := MicroGrid(600)
	var valid bytes.Buffer
	rec := ExecuteUnit(context.Background(), g.Units()[0], Sim(g.Instr), 0, 0, nil)
	if err := AppendJournalHeader(&valid, g, len(g.Units())); err != nil {
		f.Fatal(err)
	}
	if err := AppendJournalRecord(&valid, rec, 0, "w1"); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := LoadJournal(bytes.NewReader(data))
		if err != nil {
			if j != nil {
				t.Fatalf("LoadJournal returned a journal with its error %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := AppendJournalHeader(&out, Grid{Name: j.Grid, Instr: j.Instr}, j.Total); err != nil {
			t.Fatalf("re-write header: %v", err)
		}
		keys := make([]string, 0, len(j.Records))
		for k := range j.Records {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := AppendJournalRecord(&out, j.Records[k], -1, ""); err != nil {
				t.Fatalf("re-write record %q: %v", k, err)
			}
		}
		back, err := LoadJournal(&out)
		if err != nil {
			t.Fatalf("re-written journal does not load: %v\n%s", err, out.Bytes())
		}
		if back.Dropped != 0 {
			t.Fatalf("re-written journal dropped %d lines:\n%s", back.Dropped, out.Bytes())
		}
		j.Dropped = 0
		if !reflect.DeepEqual(back, j) {
			t.Fatalf("re-written journal reloads as\n%+v\nwant\n%+v", back, j)
		}
	})
}
