package main

import (
	"bytes"
	"os"
	"path/filepath"
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
