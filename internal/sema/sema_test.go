package sema

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/earthc"
)

func check(t *testing.T, src string) (*Program, error) {
	t.Helper()
	f, err := earthc.ParseFile("t.ec", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(f)
}

func mustCheckSrc(t *testing.T, src string) *Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err.Error(), fragment)
	}
}

func TestLayoutFlat(t *testing.T) {
	p := mustCheckSrc(t, `
struct Point {
	double x;
	double y;
	struct Point *next;
};
int main() { return 0; }
`)
	si := p.Structs["Point"]
	if si.Size != 3 {
		t.Errorf("Point size = %d, want 3 words", si.Size)
	}
	if si.Offsets["x"] != 0 || si.Offsets["y"] != 1 || si.Offsets["next"] != 2 {
		t.Errorf("offsets wrong: %v", si.Offsets)
	}
}

func TestLayoutNestedStruct(t *testing.T) {
	p := mustCheckSrc(t, `
struct Hosp {
	int personnel;
	int free_personnel;
};
struct Village {
	int level;
	struct Hosp hosp;
	struct Village *parent;
};
int main() { return 0; }
`)
	v := p.Structs["Village"]
	if v.Size != 4 {
		t.Errorf("Village size = %d, want 4", v.Size)
	}
	if v.Offsets["hosp"] != 1 || v.Offsets["parent"] != 3 {
		t.Errorf("offsets wrong: %v", v.Offsets)
	}
}

func TestLayoutArrayField(t *testing.T) {
	p := mustCheckSrc(t, `
struct Buf {
	int n;
	double vals[4];
	int tail;
};
int main() { return 0; }
`)
	b := p.Structs["Buf"]
	if b.Size != 6 {
		t.Errorf("Buf size = %d, want 6", b.Size)
	}
	if b.Offsets["tail"] != 5 {
		t.Errorf("tail offset = %d, want 5", b.Offsets["tail"])
	}
}

func TestRecursiveStructValueRejected(t *testing.T) {
	wantError(t, `
struct S { struct S inner; };
int main() { return 0; }
`, "recursive struct value")
}

func TestUndeclaredIdent(t *testing.T) {
	wantError(t, `int main() { return nope; }`, "undeclared identifier")
}

func TestDuplicateLocal(t *testing.T) {
	wantError(t, `int main() { int x; int x; return 0; }`, "redeclaration")
}

func TestShadowingInNestedScopeAllowed(t *testing.T) {
	mustCheckSrc(t, `
int main() {
	int x;
	x = 1;
	if (x) {
		int x;
		x = 2;
	}
	return x;
}
`)
}

func TestTypeMismatchAssign(t *testing.T) {
	wantError(t, `
struct A { int v; };
struct B { int v; };
int main() {
	A *a;
	B *b;
	a = alloc(A);
	b = a;
	return 0;
}
`, "cannot assign")
}

func TestDoubleToIntRejected(t *testing.T) {
	wantError(t, `int main() { int x; x = 1.5; return x; }`, "cannot assign")
}

func TestIntToDoublePromoted(t *testing.T) {
	mustCheckSrc(t, `int main() { double d; d = 3; return trunc(d); }`)
}

func TestSharedDirectAccessRejected(t *testing.T) {
	wantError(t, `
int main() {
	shared int count;
	count = 1;
	return 0;
}
`, "must be accessed via")
}

func TestSharedIntrinsicsAccepted(t *testing.T) {
	mustCheckSrc(t, `
int main() {
	shared int count;
	writeto(&count, 0);
	addto(&count, 5);
	return valueof(&count);
}
`)
}

func TestWriteToNonShared(t *testing.T) {
	wantError(t, `
int main() {
	int x;
	writeto(&x, 1);
	return x;
}
`, "is not shared")
}

func TestAllocUnknownStruct(t *testing.T) {
	wantError(t, `int main() { int *p; p = alloc(Nothing); return 0; }`, "must name a struct")
}

func TestCallArityChecked(t *testing.T) {
	wantError(t, `
int f(int a, int b) { return a + b; }
int main() { return f(1); }
`, "expects 2 arguments")
}

func TestCallUndefined(t *testing.T) {
	wantError(t, `int main() { return g(); }`, "undefined function")
}

func TestReturnTypeChecked(t *testing.T) {
	wantError(t, `
struct P { int v; };
int main() {
	P *p;
	p = alloc(P);
	return p;
}
`, "cannot assign")
}

func TestVoidReturnValueRejected(t *testing.T) {
	wantError(t, `
void f() { return 3; }
int main() { f(); return 0; }
`, "returns void")
}

func TestMissingReturnValueRejected(t *testing.T) {
	wantError(t, `int f() { return; } int main() { return f(); }`, "must return a value")
}

func TestArrowOnNonPointer(t *testing.T) {
	wantError(t, `
struct P { int v; };
int main() {
	P p;
	return p->v;
}
`, "-> on non-pointer")
}

func TestDotOnPointerRejected(t *testing.T) {
	wantError(t, `
struct P { int v; };
int main() {
	P *p;
	p = alloc(P);
	return p.v;
}
`, ". on non-struct")
}

func TestUnknownField(t *testing.T) {
	wantError(t, `
struct P { int v; };
int main() {
	P *p;
	p = alloc(P);
	return p->w;
}
`, "no field w")
}

func TestOwnerOfNonPointer(t *testing.T) {
	wantError(t, `int main() { int x; return owner_of(x); }`, "requires a pointer")
}

func TestPlacementOnIntExpr(t *testing.T) {
	mustCheckSrc(t, `
int f() { return 1; }
int main() { int x; x = f()@ON(0); return x; }
`)
	wantError(t, `
struct P { int v; };
int f() { return 1; }
int main() {
	P *p;
	int x;
	p = alloc(P);
	x = f()@ON(p);
	return x;
}
`, "@ON node expression")
}

func TestCaseMustBeConstant(t *testing.T) {
	wantError(t, `
int main() {
	int x;
	int y;
	x = 1;
	y = 2;
	switch (x) {
	case y: x = 3;
	}
	return x;
}
`, "constant")
}

func TestSizeofWords(t *testing.T) {
	p := mustCheckSrc(t, `
struct Pt { double x; double y; struct Pt *next; };
int main() { return sizeof(Pt); }
`)
	if got := p.SizeOf(&earthc.StructRef{Name: "Pt"}); got != 3 {
		t.Errorf("sizeof(Pt) = %d, want 3", got)
	}
}

func TestLocalPointerQualifier(t *testing.T) {
	p := mustCheckSrc(t, `
struct Pt { int v; };
int read(Pt local *p) { return p->v; }
int main() {
	Pt *p;
	p = alloc(Pt);
	return read(p)@OWNER_OF(p);
}
`)
	fi := p.Funcs["read"]
	if !fi.Params[0].IsLocalPtr() {
		t.Error("parameter p should be a local pointer")
	}
}

func TestGotoRejectedBySema(t *testing.T) {
	wantError(t, `
int main() {
	goto l;
l:
	return 0;
}
`, "goto must be eliminated")
}

func TestStringOnlyInPrintStr(t *testing.T) {
	mustCheckSrc(t, `int main() { print_str("ok\n"); return 0; }`)
	wantError(t, `int main() { int x; x = "no"; return x; }`, "string literal")
	wantError(t, `int main() { print_str(42); return 0; }`, "requires a string literal")
}

func TestDuplicateFunction(t *testing.T) {
	wantError(t, `
int f() { return 1; }
int f() { return 2; }
int main() { return f(); }
`, "duplicate function")
}

func TestFunctionShadowingIntrinsic(t *testing.T) {
	wantError(t, `
double sqrt(double x) { return x; }
int main() { return 0; }
`, "shadows an intrinsic")
}

func TestCompoundAssignNumericOnly(t *testing.T) {
	wantError(t, `
struct P { int v; };
int main() {
	P *p;
	p = alloc(P);
	p += 1;
	return 0;
}
`, "compound assignment")
}

// TestScopeResolution pins name resolution through the scope stack: an
// inner block's declaration shadows the outer one until the block closes,
// sibling blocks may reuse a name, a body block may shadow a parameter, and
// names not declared locally fall to the globals.
func TestScopeResolution(t *testing.T) {
	f, err := earthc.ParseFile("t.ec", `
int g;
int f(int x) {
	int r;
	r = x;
	{ int x; x = 1; r = x; }
	{ double x; x = 2.0; }
	r = x + g;
	return r;
}
int main() { return f(1); }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Check(f)
	if err != nil {
		t.Fatal(err)
	}
	// Every use of x, in source order, and the kind and type it resolves to.
	var got []string
	var expr func(e earthc.Expr)
	expr = func(e earthc.Expr) {
		switch x := e.(type) {
		case *earthc.Ident:
			if s := p.SymOf(x); s != nil && s.Name == "x" {
				got = append(got, fmt.Sprintf("%d:%s", s.Kind, s.Type))
			}
		case *earthc.Assign:
			expr(x.Lhs)
			expr(x.Rhs)
		case *earthc.Binary:
			expr(x.X)
			expr(x.Y)
		}
	}
	var stmt func(s earthc.Stmt)
	stmt = func(s earthc.Stmt) {
		switch st := s.(type) {
		case *earthc.Block:
			for _, c := range st.Stmts {
				stmt(c)
			}
		case *earthc.ExprStmt:
			expr(st.X)
		}
	}
	stmt(f.Funcs[0].Body)
	want := []string{"1:int", "2:int", "2:int", "2:double", "1:int"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("uses of x resolve to %v, want %v", got, want)
	}
	for i, s := range p.Syms {
		if s.ID != i {
			t.Errorf("Syms[%d] has ID %d", i, s.ID)
		}
	}
}
