package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildAtrsim compiles the atrsim binary into t's temp dir once per test.
func buildAtrsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atrsim")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSampleModeFlagConflicts covers the usage-error contract: -sample-mode
// combined with any per-CPU observer flag, or malformed, must exit 2 with a
// diagnostic on stderr, before any simulation starts.
func TestSampleModeFlagConflicts(t *testing.T) {
	bin := buildAtrsim(t)
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{
			name: "trace",
			args: []string{"-sample-mode", "systematic:10000/2000/500", "-trace", "out.jsonl"},
			want: "-sample-mode is incompatible with -trace",
		},
		{
			name: "o3view",
			args: []string{"-sample-mode", "systematic:10000/2000/500", "-o3view", "out.o3"},
			want: "-sample-mode is incompatible with",
		},
		{
			name: "sampler",
			args: []string{"-sample-mode", "systematic:10000/2000/500", "-sample", "100"},
			want: "-sample-mode is incompatible with",
		},
		{
			name: "malformed",
			args: []string{"-sample-mode", "systematic:10/20"},
			want: "sample",
		},
		{
			name: "litmus",
			args: []string{"-bench", "litmus-sb#0", "-sample-mode", "systematic:10000/2000/500"},
			want: "-sample-mode is incompatible with litmus",
		},
		{
			name: "non-canonical",
			args: []string{"-sample-mode", "systematic:10000/2000/0500"},
			want: "canonical",
		},
		{
			name: "zero-window",
			args: []string{"-sample-mode", "systematic:10000/0/500"},
			want: "window",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-bench", "gcc", "-n", "1000"}, tc.args...)
			cmd := exec.Command(bin, args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("atrsim %v: err = %v, want exit error", tc.args, err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("atrsim %v: exit code %d, want 2\nstderr: %s", tc.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("atrsim %v: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
			}
		})
	}
}

// TestSampleModeRuns smoke-tests the sampled execution path end to end: a
// short sampled run must succeed and report the sampling provenance.
func TestSampleModeRuns(t *testing.T) {
	bin := buildAtrsim(t)
	cmd := exec.Command(bin, "-bench", "gcc", "-n", "50000", "-sample-mode", "systematic:10000/2000/500")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sampled run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"sampled", "systematic:10000/2000/500", "error bars"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLitmusProfileRuns smoke-tests a litmus profile end to end through the
// CLI: an exact run of a memory-ordering probe must succeed and report the
// litmus class in the benchmark line.
func TestLitmusProfileRuns(t *testing.T) {
	bin := buildAtrsim(t)
	cmd := exec.Command(bin, "-bench", "litmus-sb#0", "-n", "1000")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("litmus run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"litmus-sb#0", "(litmus)", "committed"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestListIncludesLitmus verifies -list advertises the litmus family next to
// the benchmark profiles, so the probes are discoverable from the CLI.
func TestListIncludesLitmus(t *testing.T) {
	bin := buildAtrsim(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list failed: %v\n%s", err, out)
	}
	for _, want := range []string{"gcc", "litmus-sb#0", "litmus-mp#0", "litmus"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}
