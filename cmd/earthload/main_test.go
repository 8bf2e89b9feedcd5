package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string // substring
	}{
		{"selfhost", []string{"-selfhost", "-shards", "2", "-c", "2", "-n", "5"}, 0, "earthload: shards=2 jobs=5 failed=0"},
		{"unknown mix", []string{"-selfhost", "-mix", "nosuch"}, 2, "unknown benchmark in -mix"},
		{"no target", nil, 2, "need -addr URL or -selfhost"},
		{"bad log format", []string{"-selfhost", "-log-format", "xml"}, 2, "earthload:"},
		{"removed -sweep", []string{"-sweep", "1,2"}, 2, "flag provided but not defined: -sweep"},
		{"removed -bench", []string{"-selfhost", "-bench"}, 2, "flag provided but not defined: -bench"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.wantCode)
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.wantStderr, stderr.String())
		}
	}
}
