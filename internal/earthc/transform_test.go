package earthc

import (
	"strings"
	"testing"
)

// pipeline runs desugaring and goto elimination on a parsed function.
func restructure(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseFile("t.ec", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range f.Funcs {
		if err := DesugarLoops(fn); err != nil {
			t.Fatal(err)
		}
		if err := EliminateGotos(fn); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func assertNoGotos(t *testing.T, f *File) {
	t.Helper()
	for _, fn := range f.Funcs {
		if hasGotos(fn.Body) {
			t.Errorf("%s still contains gotos/labels:\n%s", fn.Name, Print(f))
		}
	}
}

func TestGotoForwardSameLevel(t *testing.T) {
	f := restructure(t, `
int main() {
	int x;
	x = 0;
	goto skip;
	x = 99;
skip:
	x = x + 1;
	return x;
}
`)
	assertNoGotos(t, f)
	out := Print(f)
	// The skipped statement must be guarded.
	if !strings.Contains(out, "if (") {
		t.Errorf("expected a guard:\n%s", out)
	}
}

func TestGotoBackwardSameLevel(t *testing.T) {
	f := restructure(t, `
int main() {
	int x;
	x = 0;
top:
	x = x + 1;
	if (x < 5) goto top;
	return x;
}
`)
	assertNoGotos(t, f)
	if !strings.Contains(Print(f), "do") {
		t.Errorf("backward goto should produce a do loop:\n%s", Print(f))
	}
}

func TestGotoOutOfLoop(t *testing.T) {
	f := restructure(t, `
int main() {
	int i;
	int x;
	x = 0;
	for (i = 0; i < 10; i++) {
		x = x + i;
		if (x > 5) goto out;
		x = x + 100;
	}
out:
	return x;
}
`)
	assertNoGotos(t, f)
}

// Labels stacked on the body of an if are all stripped, as they are inside
// a block; the program prints 1.
func TestStackedLabelsAsBody(t *testing.T) {
	f := restructure(t, `
int main() {
	int x;
	x = 0;
	if (x == 0) A: B: x = 1;
	print_int(x);
	return x;
}
`)
	assertNoGotos(t, f)
}

func TestGotoInwardRejected(t *testing.T) {
	f, err := ParseFile("t.ec", `
int main() {
	int x;
	goto inside;
	if (x) {
inside:
		x = 1;
	}
	return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := EliminateGotos(f.FuncByName("main")); err == nil {
		t.Error("inward goto should be rejected")
	}
}

func TestBreakContinueDesugar(t *testing.T) {
	f := restructure(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 100; i++) {
		if (i == 7) continue;
		if (i > 20) break;
		s = s + i;
	}
	return s;
}
`)
	assertNoGotos(t, f)
	out := Print(f)
	if strings.Contains(out, "break") || strings.Contains(out, "continue") {
		t.Errorf("break/continue survived desugaring:\n%s", out)
	}
}

func TestBreakInForallRejected(t *testing.T) {
	f, err := ParseFile("t.ec", `
int main() {
	int i;
	forall (i = 0; i < 4; i++) {
		if (i == 2) break;
	}
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := DesugarLoops(f.FuncByName("main")); err == nil {
		t.Error("break inside forall should be rejected")
	}
}

func TestBreakOutsideLoopRejected(t *testing.T) {
	f, err := ParseFile("t.ec", `int main() { break; return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := DesugarLoops(f.FuncByName("main")); err == nil {
		t.Error("break outside a loop should be rejected")
	}
}

// ------------------------------------------------------------- inlining ---

func TestInlineSimpleCall(t *testing.T) {
	f, err := ParseFile("t.ec", `
int twice(int v) { return v + v; }
int main() {
	int x;
	x = twice(21);
	return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	out := Print(f)
	if strings.Contains(out, "twice(21)") {
		t.Errorf("call should be inlined:\n%s", out)
	}
}

func TestInlineSubstitutesReadOnlyPointer(t *testing.T) {
	f, err := ParseFile("t.ec", `
struct P { double x; double y; };
double getx(P *p) { return p->x; }
double main2(P *q) {
	return getx(q);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	out := Print(f)
	// The inlined body must access q directly (no __arg copy), so the
	// optimizer can merge accesses on one base pointer.
	if strings.Contains(out, "__arg") {
		t.Errorf("read-only pointer arg should be substituted:\n%s", out)
	}
	if !strings.Contains(out, "q->x") {
		t.Errorf("inlined body should read q->x:\n%s", out)
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	f, err := ParseFile("t.ec", `
int fact(int n) {
	if (n <= 1) return 1;
	return n * fact(n - 1);
}
int main() { return fact(5); }
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	if !strings.Contains(Print(f), "fact(5)") {
		t.Error("recursive function must not be inlined")
	}
}

func TestInlineSkipsMutualRecursion(t *testing.T) {
	f, err := ParseFile("t.ec", `
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main() { return even(4); }
`)
	// The dialect has no prototypes; restate without forward decl.
	_ = f
	f2, err := ParseFile("t.ec", `
int even(int n) { if (n == 0) return 1; return 1 - even(n - 1); }
int main() { return even(4); }
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f2, InlineOptions{})
	if !strings.Contains(Print(f2), "even(") {
		t.Error("self-recursive even() must not be inlined")
	}
}

func TestInlineSkipsPlacedCalls(t *testing.T) {
	f, err := ParseFile("t.ec", `
struct P { int v; };
int get(P *p) { return p->v; }
int main() {
	P *p;
	int x;
	p = alloc(P);
	x = get(p)@OWNER_OF(p);
	return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	if !strings.Contains(Print(f), "@OWNER_OF") {
		t.Error("placed call must not be inlined")
	}
}

func TestInlineConditionExtraction(t *testing.T) {
	f, err := ParseFile("t.ec", `
int pos(int v) { if (v > 0) return 1; return 0; }
int main() {
	int x;
	x = 5;
	if (pos(x) == 1) x = 10;
	return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	out := Print(f)
	if strings.Contains(out, "pos(x)") {
		t.Errorf("call in if condition should be extracted and inlined:\n%s", out)
	}
}

func TestInlineDoesNotExtractShortCircuit(t *testing.T) {
	f, err := ParseFile("t.ec", `
int oracle(int v) { return v * 2; }
int main() {
	int x;
	x = 1;
	if (x != 0 && oracle(x) > 1) x = 3;
	return x;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	if !strings.Contains(Print(f), "oracle(x)") {
		t.Error("call under && must stay in place (conditional evaluation)")
	}
}

func TestInlineSkipsSwitchReturns(t *testing.T) {
	f, err := ParseFile("t.ec", `
int sel(int k) {
	switch (k) {
	case 0: return 10;
	default: return 20;
	}
}
int main() { return sel(1); }
`)
	if err != nil {
		t.Fatal(err)
	}
	InlineFunctions(f, InlineOptions{})
	if !strings.Contains(Print(f), "sel(1)") {
		t.Error("function with returns inside switch must not be inlined")
	}
}

// TestCloneIndependence: mutating a clone must not affect the original.
func TestCloneIndependence(t *testing.T) {
	f, err := ParseFile("t.ec", `int main() { int x; x = 1 + 2; return x; }`)
	if err != nil {
		t.Fatal(err)
	}
	orig := f.FuncByName("main").Body
	clone := CloneStmt(orig).(*Block)
	before := Print(f)
	clone.Stmts[0].(*DeclStmt).Decl.Name = "zzz"
	if Print(f) != before {
		t.Error("mutating the clone changed the original")
	}
}
