package rwsets_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pointsto"
	"repro/internal/rwsets"
	"repro/internal/simple"
)

func analyze(t *testing.T, src string) (*simple.Program, *rwsets.Result) {
	t.Helper()
	u, err := core.NewPipeline(core.Options{NoInline: true}).Compile("t.ec", src)
	if err != nil {
		t.Fatal(err)
	}
	return u.Simple, u.RWSets
}

func findBasic(f *simple.Func, fragment string) *simple.Basic {
	var out *simple.Basic
	simple.WalkBasics(f.Body, func(b *simple.Basic) {
		if out == nil && strings.Contains(simple.BasicText(b), fragment) {
			out = b
		}
	})
	return out
}

func varOf(t *testing.T, sp *simple.Program, fn, name string) *simple.Var {
	t.Helper()
	v := sp.FuncByName(fn).VarByName(name)
	if v == nil {
		t.Fatalf("no var %s", name)
	}
	return v
}

func TestVarWrittenDirect(t *testing.T) {
	sp, rw := analyze(t, `
int main() {
	int x;
	int y;
	x = 1;
	y = 2;
	return x + y;
}
`)
	f := sp.FuncByName("main")
	x := varOf(t, sp, "main", "x")
	sx := findBasic(f, "x = 1")
	sy := findBasic(f, "y = 2")
	if !rw.VarWritten(x, sx) {
		t.Error("x = 1 writes x")
	}
	if rw.VarWritten(x, sy) {
		t.Error("y = 2 does not write x")
	}
}

func TestAccessedViaAliasDistinguishesDirect(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, P *q) {
	int x;
	int y;
	x = p->a;
	y = q->a;
	p->a = 3;
	return x + y;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, s);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	q := varOf(t, sp, "g", "q")
	directRead := findBasic(f, "x = p->a")
	aliasRead := findBasic(f, "y = q->a")
	store := findBasic(f, "p->a = 3")

	// From p's perspective, its own read is direct, q's read is an alias.
	if rw.AccessedViaAlias(p, 0, directRead, false) {
		t.Error("p's own read is direct, not an alias")
	}
	if !rw.AccessedViaAlias(p, 0, aliasRead, false) {
		t.Error("q's read of the same word is an aliased read for p")
	}
	// The store via p is a direct write for p but an aliased write for q.
	if rw.AccessedViaAlias(p, 0, store, true) {
		t.Error("p's own store is direct")
	}
	if !rw.AccessedViaAlias(q, 0, store, true) {
		t.Error("p's store is an aliased write for q")
	}
}

// TestSpanAccessedViaAlias: the span query answers for any word of the
// span, and only for words of it.
func TestSpanAccessedViaAlias(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; int b; int c; int d; };
int g(P *p, P *q) {
	q->c = 3;
	return p->a;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, s);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	store := findBasic(f, "q->c = 3")
	for _, tc := range []struct {
		off, size int
		want      bool
	}{{0, 2, false}, {0, 3, true}, {2, 1, true}, {1, 3, true}, {3, 1, false}} {
		if got := rw.SpanAccessedViaAlias(p, tc.off, tc.size, store, true); got != tc.want {
			t.Errorf("p->%d..%d written through q: got %t, want %t", tc.off, tc.off+tc.size-1, got, tc.want)
		}
		any := false
		for w := tc.off; w < tc.off+tc.size; w++ {
			any = any || rw.AccessedViaAlias(p, w, store, true)
		}
		if any != tc.want {
			t.Errorf("p->%d..%d: the per-word queries answer %t", tc.off, tc.off+tc.size-1, any)
		}
	}
	if rw.SpanAccessedViaAlias(p, 0, 4, store, false) {
		t.Error("q->c = 3 reads no word of p's span")
	}
}

func TestCallSummaryPropagates(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
void poke(P *p) { p->a = 1; }
int g(P *p) {
	int x;
	poke(p);
	x = 5;
	return x;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	call := findBasic(f, "poke(")
	// The callee writes p->a; from the caller that is an aliased write
	// (provenance does not survive the call boundary).
	if !rw.AccessedViaAlias(p, 0, call, true) {
		t.Error("callee's write must appear as an aliased write at the call")
	}
}

func TestCompoundEffectsUnionChildren(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, int c) {
	int x;
	x = 0;
	if (c) {
		p->a = 1;
	}
	return x;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, 1);
}
`)
	f := sp.FuncByName("g")
	q := varOf(t, sp, "g", "p")
	var ifStmt simple.Stmt
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		if _, ok := s.(*simple.If); ok {
			ifStmt = s
		}
	})
	writes, ok := rw.Accesses(ifStmt, true)
	if !ok {
		t.Fatal("no effects recorded for the if statement")
	}
	// The if contains a direct store via p: it must not read as "aliased"
	// for p itself, but must be visible as a write at all.
	if rw.AccessedViaAlias(q, 0, ifStmt, true) {
		t.Error("direct store inside the if is not an alias for p")
	}
	if len(writes) == 0 {
		t.Error("the if's effects must include the store")
	}
}

func TestSharedIntrinsicEffects(t *testing.T) {
	sp, rw := analyze(t, `
int main() {
	shared int s;
	int x;
	writeto(&s, 1);
	addto(&s, 2);
	x = valueof(&s);
	return x;
}
`)
	f := sp.FuncByName("main")
	sv := varOf(t, sp, "main", "s")
	w := findBasic(f, "writeto")
	add := findBasic(f, "addto")
	r := findBasic(f, "valueof")
	// Shared ops are aliased ("other") accesses to the variable's slot.
	slot := rwsets.Access{Loc: pointsto.Loc{Base: sv, Off: 0}, Via: rwsets.Other}
	for _, c := range []struct {
		what  string
		s     *simple.Basic
		write bool
	}{
		{"writeto writes", w, true},
		{"addto writes", add, true},
		{"addto reads", add, false},
		{"valueof reads", r, false},
	} {
		if got, _ := rw.Accesses(c.s, c.write); !slices.Contains(got, slot) {
			t.Errorf("%s the shared variable's location: got %v", c.what, got)
		}
	}
	if !rw.VarWritten(sv, w) {
		t.Error("writeto writes the shared variable")
	}
}

func TestUnknownStatementIsConservative(t *testing.T) {
	sp, rw := analyze(t, `int main() { int x; x = 1; return x; }`)
	x := varOf(t, sp, "main", "x")
	ghost := &simple.Basic{Kind: simple.KAssign}
	if !rw.VarWritten(x, ghost) {
		t.Error("unknown statements must be treated conservatively")
	}
}

func TestRegisterNewBasic(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int main() {
	P *p;
	p = alloc(P);
	return p->a;
}
`)
	p := varOf(t, sp, "main", "p")
	g := sp.FuncByName("main").NewBasic(simple.KGetF)
	g.P = p
	g.Off = 0
	g.Dst = p // arbitrary
	rw.Register(g)
	// A registered get is an aliased ("other") read for p.
	if !rw.AccessedViaAlias(p, 0, g, false) {
		t.Error("registered get should read p->a as an 'other' access")
	}
}

// ifIn returns the first if statement in f.
func ifIn(f *simple.Func) simple.Stmt {
	var out simple.Stmt
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		if _, ok := s.(*simple.If); ok && out == nil {
			out = s
		}
	})
	return out
}

func TestDirectAndAliasedWriteInOneIf(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, P *q, int c) {
	if (c) {
		p->a = 1;
		q->a = 2;
	}
	return 0;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, s, 1);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	q := varOf(t, sp, "g", "q")
	ifStmt := ifIn(f)
	// One word, written once via p and once via q: the run of that word's
	// writes holds both provenances, and each pointer sees the other's.
	if !rw.AccessedViaAlias(p, 0, ifStmt, true) {
		t.Error("q's store inside the if is an aliased write for p")
	}
	if !rw.AccessedViaAlias(q, 0, ifStmt, true) {
		t.Error("p's store inside the if is an aliased write for q")
	}
	if rw.AccessedViaAlias(p, 0, findBasic(f, "p->a = 1"), true) {
		t.Error("p's own store is direct")
	}
	if rw.AccessedViaAlias(p, 0, ifStmt, false) {
		t.Error("the if reads nothing through an alias")
	}
	writes, _ := rw.Accesses(ifStmt, true)
	if len(writes) != 2 || writes[0].Loc != writes[1].Loc {
		t.Errorf("want one word written via p and via q, got %v", writes)
	}
}

func TestRepeatedAccessIsDeduplicated(t *testing.T) {
	sp, rw := analyze(t, `
struct P { int a; };
int g(P *p, int c) {
	int x;
	int y;
	x = 0;
	y = 0;
	if (c) {
		x = p->a;
		y = p->a;
		x = p->a;
	}
	return x + y;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, 1);
}
`)
	f := sp.FuncByName("g")
	p := varOf(t, sp, "g", "p")
	ifStmt := ifIn(f)
	reads, _ := rw.Accesses(ifStmt, false)
	if len(reads) != 1 || reads[0].Via != (rwsets.Via{P: p, Off: 0}) {
		t.Errorf("three loads of p->a are one read via p, got %v", reads)
	}
	for _, write := range []bool{false, true} {
		vars := rw.VarAccesses(ifStmt, write)
		for i, v := range vars {
			if slices.Contains(vars[i+1:], v) {
				t.Errorf("write=%v: %s listed twice in %v", write, v.Name, vars)
			}
		}
	}
	if got := rw.VarAccesses(ifStmt, true); len(got) != 2 {
		t.Errorf("the if writes x and y by name, got %v", got)
	}
}

func TestCalleeWriteToCallerLocal(t *testing.T) {
	sp, rw := analyze(t, `
void set(int *q) { *q = 1; }
int g() {
	int x;
	x = 0;
	set(&x);
	return x;
}
int main() {
	int y;
	y = g();
	return y;
}
`)
	x := varOf(t, sp, "g", "x")
	slot := pointsto.Loc{Base: x, Off: 0}
	written := func(s simple.Stmt) bool {
		writes, _ := rw.Accesses(s, true)
		return slices.ContainsFunc(writes, func(a rwsets.Access) bool { return a.Loc == slot })
	}
	// At the call in g, set's write through q lands on x's slot.
	call := findBasic(sp.FuncByName("g"), "set(")
	if !written(call) || !rw.VarWritten(x, call) {
		t.Error("set(&x) writes x")
	}
	// x's frame ends with g, so g's summary, seen at main's call, drops it.
	if written(findBasic(sp.FuncByName("main"), "g(")) {
		t.Error("g's summary must not carry writes to its own frame")
	}
}
