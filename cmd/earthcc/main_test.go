package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const listSum = `struct Node { int v; struct Node *next; };
int main() {
	Node *head;
	Node *p;
	int i;
	int sum;
	head = NULL;
	for (i = 0; i < 10; i++) {
		p = alloc_on(Node, 1);
		p->v = i;
		p->next = head;
		head = p;
	}
	sum = 0;
	p = head;
	while (p != NULL) { sum = sum + p->v; p = p->next; }
	print_int(sum);
	return sum;
}
`

func writeSrc(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	good := writeSrc(t, "list.ec", listSum)
	bad := writeSrc(t, "bad.ec", "int main() {\n\treturn 1 +;\n}\n")
	for _, tc := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring
		wantStderr string // substring
	}{
		{"simple dump", []string{"-O", "-labels", good}, 0, "main", ""},
		{"placement", []string{"-O", "-dump=placement", good}, 0, "RemoteReads(S", ""},
		{"placement needs -O", []string{"-dump=placement", good}, 1, "", "earthcc: placement sets require -O"},
		{"parse error", []string{bad}, 1, "", "earthcc: " + bad + ": 2:12: expected expression"},
		{"unknown flag", []string{"-nosuch", good}, 2, "", "flag provided but not defined: -nosuch"},
		{"no file", nil, 2, "", "usage: earthcc [flags] file.ec"},
		// Compilation is sequential; the worker-count flag is gone.
		{"removed -j", []string{"-j", "2", good}, 2, "", "flag provided but not defined: -j"},
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

// TestCacheDirWarmVsCold: the same source compiled twice under -cache-dir
// serves the second run from the disk store — the compile is skipped — with
// byte-identical output.
func TestCacheDirWarmVsCold(t *testing.T) {
	args := []string{"-O", "-dump=threaded", "-cache-dir", t.TempDir(), writeSrc(t, "list.ec", listSum)}
	var cold, coldLog, warm, warmLog bytes.Buffer
	if code := run(args, &cold, &coldLog); code != 0 {
		t.Fatalf("cold run: exit %d: %s", code, coldLog.String())
	}
	if want := "earthcc: cache: no disk hit, compiled 1 function(s)\n"; coldLog.String() != want {
		t.Errorf("cold run logged %q, want %q", coldLog.String(), want)
	}
	if code := run(args, &warm, &warmLog); code != 0 {
		t.Fatalf("warm run: exit %d: %s", code, warmLog.String())
	}
	if !strings.Contains(warmLog.String(), "disk hit (compile skipped)") {
		t.Errorf("second compile reported no disk hit: %q", warmLog.String())
	}
	if cold.Len() == 0 || !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
}

// countSrc is the paper's Figure 1 program from the repository's testdata.
var countSrc = filepath.Join("..", "..", "testdata", "count.ec")

// TestStatsSharesCacheKey: -stats only observes the compile, so an artifact
// stored by a -stats run serves the same command without -stats.
func TestStatsSharesCacheKey(t *testing.T) {
	dir := t.TempDir()
	var out, log bytes.Buffer
	if code := run([]string{"-O", "-stats", "-dump=threaded", "-cache-dir", dir, countSrc}, &out, &log); code != 0 {
		t.Fatalf("-stats run: exit %d: %s", code, log.String())
	}
	out.Reset()
	log.Reset()
	if code := run([]string{"-O", "-dump=threaded", "-cache-dir", dir, countSrc}, &out, &log); code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, log.String())
	}
	if want := "earthcc: cache: 1 disk hit (compile skipped)\n"; log.String() != want {
		t.Errorf("plain run after a -stats run logged %q, want %q", log.String(), want)
	}
}

// TestStatsOutput: -O -stats prints a timing line for every phase the
// compile ran, then the placement and selection counts of the unit.
func TestStatsOutput(t *testing.T) {
	var out, log bytes.Buffer
	if code := run([]string{"-O", "-stats", "-dump=ast", countSrc}, &out, &log); code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}
	for _, phase := range []string{"parse", "inline", "restructure", "sema", "lower",
		"locality", "layout", "pointsto", "rwsets", "placement", "commsel"} {
		line := regexp.MustCompile(`(?m)^  ` + phase + ` +[0-9]+\.[0-9]{3} ms +[0-9]+\.[0-9]% #*$`)
		if !line.MatchString(out.String()) {
			t.Errorf("no timing line for phase %s:\n%s", phase, out.String())
		}
	}
	for _, want := range []string{
		"placement: 4 read / 2 write candidates -> 6 / 7 placed tuples\n",
		"selection: reads 4 pipelined + 0 blocked (0 redundant eliminated); writes 2 pipelined + 0 blocked\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestThreadedDumpFunc: -func limits -dump=threaded to the function and the
// forall and arm bodies generated from it.
func TestThreadedDumpFunc(t *testing.T) {
	src := writeSrc(t, "bodies.ec", `struct Node { int v; struct Node *next; };
int f(Node *head) {
	shared int s;
	Node *p;
	int a;
	int b;
	writeto(&s, 0);
	forall (p = head; p != NULL; p = p->next) { addto(&s, p->v); }
	{^ a = 1; b = 2; ^}
	return valueof(&s) + a + b;
}
int main() {
	Node *head;
	head = alloc(Node);
	head->v = 3;
	head->next = NULL;
	return f(head);
}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-inline", "-dump=threaded", "-func", "f", src}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line != "" && line[0] != ' ' {
			names = append(names, strings.Fields(line)[0])
		}
	}
	if len(names) != 4 || names[0] != "f" {
		t.Fatalf("dumped %v, want f, its forall body and its two arms", names)
	}
	for _, n := range names[1:] {
		if !strings.HasPrefix(n, "f$forall") && !strings.HasPrefix(n, "f$arm") {
			t.Errorf("dumped %s, not a body of f", n)
		}
	}
}
