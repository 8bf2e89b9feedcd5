package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUsageErrors: every way of mis-invoking earthd exits 2 with a
// message on stderr before any listener or journal is opened.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantStderr string // substring
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
		{"positional argument", []string{"prog.ec"}, "usage: earthd [flags]"},
		{"bad log level", []string{"-log-level", "chatty"}, "earthd: "},
		// -sim-j is ignored but still parses, so the positional argument is
		// what fails.
		{"ignored -sim-j", []string{"-sim-j", "2", "prog.ec"}, "usage: earthd [flags]"},
		// Compilation is sequential; the worker-count flag is gone. (The
		// positional argument keeps a build that still parses -j from
		// starting a server.)
		{"removed -j", []string{"-j", "2", "prog.ec"}, "flag provided but not defined: -j"},
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
