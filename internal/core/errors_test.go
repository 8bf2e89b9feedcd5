package core

import (
	"strings"
	"testing"

	"repro/internal/simple"
)

// TestRecoverPhaseNamesFunction: a panic that leaves a per-function loop
// becomes a positioned error naming the file, the phase and the function; a
// panic outside any such loop names the file and the phase.
func TestRecoverPhaseNamesFunction(t *testing.T) {
	build := func(body func()) (u *Unit, err error) {
		u = &Unit{}
		defer recoverPhase("x.ec", &phaseClock{name: "rwsets"}, &u, &err)
		body()
		return u, nil
	}
	prog := &simple.Program{Funcs: []*simple.Func{{Name: "main"}, {Name: "f"}}}
	for _, tc := range []struct {
		body func()
		want string
	}{
		{func() {
			prog.EachFunc(func(f *simple.Func) {
				if f.Name == "f" {
					panic("boom")
				}
			})
		}, "x.ec: internal error during rwsets in function f: boom"},
		{func() { panic("boom") }, "x.ec: internal error during rwsets: boom"},
	} {
		u, err := build(tc.body)
		if u != nil || err == nil || err.Error() != tc.want {
			t.Errorf("got unit %v, error %v; want no unit and %q", u, err, tc.want)
		}
	}
}

func TestCompileParseError(t *testing.T) {
	_, err := compile("bad.ec", "int main( { return 0; }", Options{})
	if err == nil {
		t.Fatal("expected a parse error")
	}
}

func TestCompileSemaError(t *testing.T) {
	_, err := compile("bad.ec", "int main() { return nope; }", Options{})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("expected a sema error, got %v", err)
	}
}

func TestCompileNonConstGlobalInit(t *testing.T) {
	_, err := compile("bad.ec", `
int f() { return 1; }
int g = 0;
int main() { return g; }
`, Options{})
	if err != nil {
		t.Fatalf("constant init must work: %v", err)
	}
	_, err = compile("bad.ec", `
int f() { return 1; }
int g = 1 + 2;
int main() { return g; }
`, Options{})
	if err == nil || !strings.Contains(err.Error(), "constant") {
		t.Fatalf("expected a constant-initializer error, got %v", err)
	}
}

func TestRunWithoutMain(t *testing.T) {
	u, err := compile("nomain.ec", "int f() { return 1; }", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runUnit(u, RunConfig{Nodes: 1}); err == nil ||
		!strings.Contains(err.Error(), "main") {
		t.Fatalf("expected a no-main error, got %v", err)
	}
}

func TestSequentialMultiNodeRejected(t *testing.T) {
	u, err := compile("m.ec", "int main() { return 0; }", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runUnit(u, RunConfig{Nodes: 4, Sequential: true}); err == nil {
		t.Fatal("sequential baseline on 4 nodes must be rejected")
	}
}

func TestGotoUnsupportedPatterns(t *testing.T) {
	_, err := compile("bad.ec", `
int main() {
	int i;
	forall (i = 0; i < 4; i++) {
		goto out;
	}
out:
	return 0;
}
`, Options{})
	if err == nil || !strings.Contains(err.Error(), "forall") {
		t.Fatalf("expected a forall-goto error, got %v", err)
	}
}

func TestReturnInsideParSeqRejected(t *testing.T) {
	u, err := compile("bad.ec", `
int main() {
	{^
		return 1;
	^}
	return 0;
}
`, Options{})
	if err != nil {
		// Rejected at compile time is fine too.
		return
	}
	if _, err := runUnit(u, RunConfig{Nodes: 1}); err == nil {
		t.Fatal("return inside a parallel arm must be rejected somewhere")
	}
}
