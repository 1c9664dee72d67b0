package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildAtrsweep compiles the atrsweep binary into t's temp dir.
func buildAtrsweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atrsweep")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestModeFlags covers the contract that every flag applies in the mode it
// is set in or is a usage error: a flag of the other mode exits 2 before
// anything runs, and figure mode takes the engine's flags — an injected
// fault fails the sweep (exit 3, no table) and a timeout aborts it (exit 1)
// with its journal written.
func TestModeFlags(t *testing.T) {
	bin := buildAtrsweep(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	cases := []struct {
		name string
		args []string
		code int
		want string // substring expected on stderr
	}{
		{"json with grid", []string{"-grid", "micro", "-json", filepath.Join(dir, "x.json")}, 2, "-json"},
		{"fig with grid", []string{"-grid", "micro", "-fig", "10"}, 2, "-fig and -grid"},
		{"out without grid", []string{"-fig", "13", "-out", filepath.Join(dir, "m.json")}, 2, "-out"},
		{"figure fault injection", []string{"-fig", "13", "-inject-panic", "1", "-retries", "0"}, 3, "1 of 40 runs failed"},
		{"figure timeout", []string{"-fig", "13", "-journal", journal, "-timeout", "1ns"}, 1, "sweep aborted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-n", "1000"}, tc.args...)...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("atrsweep %v: err = %v, want exit code %d", tc.args, err, tc.code)
			}
			if code := ee.ExitCode(); code != tc.code {
				t.Errorf("atrsweep %v: exit code %d, want %d\nstderr: %s", tc.args, code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("atrsweep %v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("atrsweep %v printed %q; a refused or failed sweep prints nothing", tc.args, stdout.String())
			}
		})
	}
	if b, err := os.ReadFile(journal); err != nil || !strings.Contains(string(b), `"grid":"fig-13"`) {
		t.Errorf("figure-mode journal %q (%v) lacks its header", b, err)
	}
}
