package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// remoteList builds a list on node 1 and walks it from node 0, so every
// access is remote: the optimizer has something to block, the recorder has
// messages to record and the fault layer has traffic to drop.
const remoteList = `struct Point {
	double x;
	double y;
	double z;
	struct Point *next;
};

int main() {
	Point *head;
	Point *p;
	int i;
	double sum;
	head = NULL;
	for (i = 0; i < 30; i++) {
		p = alloc_on(Point, 1);
		p->x = dbl(i);
		p->y = dbl(i * 2);
		p->z = dbl(i * 3);
		p->next = head;
		head = p;
	}
	sum = 0.0;
	p = head;
	while (p != NULL) {
		sum = sum + p->x + p->y + p->z;
		p = p->next;
	}
	print_double(sum);
	return trunc(sum);
}
`

func writeSrc(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "list.ec")
	if err := os.WriteFile(path, []byte(remoteList), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	src := writeSrc(t)
	missing := filepath.Join(t.TempDir(), "absent.ec")
	for _, tc := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout []string // substrings
		wantStderr string   // substring
	}{
		{"plain", []string{"-nodes", "2", src}, 0, []string{"2610.000000\n"}, ""},
		{"runtime trap", []string{src}, 1, nil, "earthrun: earthsim: main@5: alloc_on node 1 out of range"},
		{"stats", []string{"-O", "-nodes", "2", "-stats", src}, 0,
			[]string{"2610.000000\n", "time: ", " on 2 node(s)\n", "comm: reads="}, ""},
		{"compare", []string{"-compare", "-nodes", "2", src}, 0,
			[]string{"2610.000000\n", "simple:    ", "optimized: ", "improvement: "}, ""},
		{"trace summary", []string{"-O", "-nodes", "2", "-trace-summary", src}, 0,
			[]string{"2610.000000\n", "trace summary: 2 node(s)", "blkget"}, ""},
		{"bad cost spec", []string{"-cost", "NoSuchKnob=1", src}, 1, nil, "earthrun: "},
		{"missing file", []string{missing}, 1, nil, "earthrun: open " + missing},
		{"no file", nil, 2, nil, "usage: earthrun [flags] file.ec"},
		// The live debug server is gone; its flag is now an unknown one.
		{"-http", []string{"-http", ":0", src}, 2, nil, "flag provided but not defined: -http"},
		// Compilation is sequential; the worker-count flag is gone.
		{"-j", []string{"-j", "2", src}, 2, nil, "flag provided but not defined: -j"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.wantCode, stderr.String())
		}
		for _, want := range tc.wantStdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", tc.name, want, stdout.String())
			}
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.name, tc.wantStderr, stderr.String())
		}
	}
}

// TestTraceFile: -trace writes parseable trace_event JSON that carries the
// run's messages, and leaves stdout as an untraced run prints it.
func TestTraceFile(t *testing.T) {
	src := writeSrc(t)
	out := filepath.Join(t.TempDir(), "t.json")
	var plain, traced, stderr bytes.Buffer
	if code := run([]string{"-O", "-nodes", "2", "-stats", src}, &plain, &stderr); code != 0 {
		t.Fatalf("untraced run: exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-O", "-nodes", "2", "-stats", "-trace", out, src}, &traced, &stderr); code != 0 {
		t.Fatalf("traced run: exit %d: %s", code, stderr.String())
	}
	if plain.String() != traced.String() {
		t.Errorf("-trace changed stdout:\n--- untraced ---\n%s--- traced ---\n%s", plain.String(), traced.String())
	}
	if !strings.Contains(stderr.String(), "earthrun: trace written to "+out) {
		t.Errorf("stderr lacks the trace notice: %s", stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	msgs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "b" && ev.Cat == "msg" {
			msgs++
		}
	}
	if doc.DisplayTimeUnit != "ns" || msgs == 0 {
		t.Errorf("trace file: unit %q, %d message events of %d", doc.DisplayTimeUnit, msgs, len(doc.TraceEvents))
	}
}

// TestFaultsReproducible: the same -faults spec and -fault-seed give the
// same output, time, counters and fault statistics twice; a different seed
// gives different fault statistics.
func TestFaultsReproducible(t *testing.T) {
	src := writeSrc(t)
	faulted := func(seed string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-O", "-nodes", "2", "-stats", "-faults", "drop=0.2,dup=0.05,delay=2", "-fault-seed", seed, src}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("seed %s: exit %d: %s", seed, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "earthrun: faults [") {
			t.Fatalf("seed %s: stderr lacks the fault report: %s", seed, stderr.String())
		}
		return stdout.String() + stderr.String()
	}
	a, b := faulted("7"), faulted("7")
	if a != b {
		t.Errorf("same seed, different runs:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if c := faulted("8"); c == a {
		t.Errorf("seeds 7 and 8 gave identical runs:\n%s", a)
	}
}

// TestProfileRoundTrip: -profile writes an artifact that -profile-use
// accepts without a staleness warning, a second -profile run merges into
// it, and the profile-guided build computes what the plain one does.
func TestProfileRoundTrip(t *testing.T) {
	src := writeSrc(t)
	prof := filepath.Join(t.TempDir(), "p.json")
	for _, wantRuns := range []string{"(1 run(s) accumulated)", "(2 run(s) accumulated)"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-nodes", "2", "-profile", prof, src}, &stdout, &stderr); code != 0 {
			t.Fatalf("-profile: exit %d: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), wantRuns) {
			t.Errorf("-profile: stderr lacks %q: %s", wantRuns, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nodes", "2", "-profile-use", prof, src}, &stdout, &stderr); code != 0 {
		t.Fatalf("-profile-use: exit %d: %s", code, stderr.String())
	}
	if stdout.String() != "2610.000000\n" || stderr.Len() != 0 {
		t.Errorf("-profile-use: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
