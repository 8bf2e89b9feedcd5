package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/olden"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring
		wantStderr string // substring
	}{
		{"faultsweep", []string{"-faultsweep", "-scale", "quick"}, 0, "Fault sweep: reliable messaging under injected faults, 4 nodes, seed 1", ""},
		{"bad scale", []string{"-scale", "bogus"}, 1, "", `paperbench: unknown -scale "bogus"`},
		{"bad procs", []string{"-table3", "-scale", "quick", "-procs", "1,x"}, 1, "", `paperbench: bad -procs element "x"`},
		{"removed -out", []string{"-fig10", "-out", "f.json"}, 2, "", "flag provided but not defined: -out"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.wantCode, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.wantStdout) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.name, tc.wantStdout, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.wantStderr, stderr.String())
		}
	}
}

// TestFig10JSON: `-fig10 -scale quick -json` must report what the harness
// measures at olden.QuickParams on the default 4 nodes — the totals the
// repo-root TestCounters pins as literals — so the flag-to-parameter mapping
// cannot drift from the one the tests and earthd use.
func TestFig10JSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig10", "-scale", "quick", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, stdout.String())
	}
	if rep.Fig10 == nil || rep.Table1 != nil || rep.Table3 != nil || rep.PGO != nil || rep.FaultSweep != nil {
		t.Fatalf("-fig10 -json: want the fig10 artifact alone, got %s", stdout.String())
	}
	want, err := harness.MeasureFig10(4, olden.QuickParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fig10.Rows) != len(want.Rows) {
		t.Fatalf("fig10 has %d rows, want %d", len(rep.Fig10.Rows), len(want.Rows))
	}
	for i, got := range rep.Fig10.Rows {
		w := want.Rows[i]
		if got.Benchmark != w.Benchmark || got.TotalSimple != w.TotalSimple || got.OptTotal() != w.OptTotal() {
			t.Errorf("row %d: got %s simple=%d opt=%d, want %s simple=%d opt=%d", i,
				got.Benchmark, got.TotalSimple, got.OptTotal(), w.Benchmark, w.TotalSimple, w.OptTotal())
		}
	}
}
