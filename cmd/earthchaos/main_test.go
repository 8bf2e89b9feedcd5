package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunUsageErrors: every way of mis-invoking earthchaos exits 2 with a
// message on stderr before any daemon is started or directory created.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantStderr string // substring
	}{
		{"missing -earthd", nil, "usage: earthchaos -earthd path/to/earthd [flags]"},
		{"positional argument", []string{"-earthd", "/nonexistent/earthd", "extra"}, "usage: earthchaos -earthd path/to/earthd [flags]"},
		{"bad log format", []string{"-earthd", "/nonexistent/earthd", "-log-format", "xml"}, "earthchaos: unknown log format"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.wantStderr, stderr.String())
		}
	}
}

// TestSeededCycle runs one seeded SIGKILL/restart cycle against the real
// earthd binary with a journal. The harness fails unless every acknowledged
// job completes exactly once with a payload byte-identical to a clean run:
// the crash-safety contract, end to end through real fsyncs.
func TestSeededCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the earthd binary and kills it mid-load")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "earthd")
	if out, err := exec.Command("go", "build", "-o", bin, "../earthd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	args := []string{"-earthd", bin, "-dir", filepath.Join(dir, "journal"), "-n", "8", "-cycles", "1", "-seed", "7"}
	if code := run(args, &stderr); code != 0 {
		t.Fatalf("earthchaos %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
}
