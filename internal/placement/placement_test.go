package placement_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/simple"
)

// analyze compiles with optimization disabled for the transform but runs
// the placement analysis, returning the function and its sets.
func analyze(t *testing.T, src, fn string) (*simple.Func, *placement.Result) {
	t.Helper()
	u, err := core.NewPipeline(core.Options{NoInline: true}).Compile("t.ec", src)
	if err != nil {
		t.Fatal(err)
	}
	res := placement.AnalyzeProfiledP(u.Simple, u.RWSets, u.Locality, nil, nil)
	f := u.Simple.FuncByName(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	return f, res
}

// figure7Src is the paper's Figure 7 program (statement labels S2..S15 in
// the paper correspond to our labels in lowering order).
const figure7Src = `
struct Point {
	double x;
	double y;
	struct Point *next;
};

double f(double ax, double ay, double bx, double by) {
	return ax - bx + ay - by;
}

double example(Point *head, Point *t, double epsilon) {
	Point *p;
	Point *close;
	double ax; double ay; double bx; double by;
	double cx; double tx; double diffx;
	double cy; double ty; double diffy;
	double dist;
	close = NULL;
	p = head;
	while (p != NULL) {
		ax = p->x;
		ay = p->y;
		bx = t->x;
		by = t->y;
		dist = f(ax, ay, bx, by);
		if (dist < epsilon) close = p;
		p = p->next;
	}
	cx = close->x;
	tx = t->x;
	diffx = cx - tx;
	cy = close->y;
	ty = t->y;
	diffy = cy - ty;
	return diffx + diffy;
}

int main() { return 0; }
`

// findBasic locates the basic statement whose printed text contains the
// fragment.
func findBasic(f *simple.Func, fragment string) *simple.Basic {
	var out *simple.Basic
	simple.WalkBasics(f.Body, func(b *simple.Basic) {
		if out == nil && strings.Contains(simple.BasicText(b), fragment) {
			out = b
		}
	})
	return out
}

// setHas reports whether the set contains a tuple (pname->field) with the
// given frequency (freq < 0 skips the check).
func setHas(s *placement.Set, pname, field string, freq float64) bool {
	if s == nil {
		return false
	}
	for _, tu := range s.Tuples() {
		if tu.P.Name == pname && tu.Field == field {
			if freq >= 0 && tu.Freq != freq {
				return false
			}
			return true
		}
	}
	return false
}

// TestFigure7LoopBody reproduces the paper's per-statement RemoteReads sets
// inside the loop body (paper statements S9..S15).
func TestFigure7LoopBody(t *testing.T) {
	f, res := analyze(t, figure7Src, "example")

	// Before "ax = p->x" (paper S9): {(p->next,1,S15), (p->y,1,S10), (p->x,1,S9)}
	// — t->x and t->y were already consumed going backward... in the paper
	// the set is {(p->next), (t->y), (t->x), (p->y), (p->x)} minus the ones
	// killed; our exact reproduction: the set before the first body
	// statement contains p->x, p->y, p->next, t->x, t->y.
	s9 := findBasic(f, "ax = p->x")
	set := res.Reads[simple.Stmt(s9)]
	if set == nil {
		t.Fatal("no RemoteReads before ax = p->x")
	}
	for _, want := range []struct{ p, f string }{
		{"p", "x"}, {"p", "y"}, {"p", "next"}, {"t", "x"}, {"t", "y"},
	} {
		if !setHas(set, want.p, want.f, -1) {
			t.Errorf("RemoteReads(ax = p->x) missing (%s->%s): %s", want.p, want.f, set)
		}
	}

	// Before "bx = t->x" (paper S11): p->x is gone (its read is above),
	// p->y gone, p->next remains, t->x and t->y remain.
	s11 := findBasic(f, "bx = t->x")
	set11 := res.Reads[simple.Stmt(s11)]
	if setHas(set11, "p", "x", -1) || setHas(set11, "p", "y", -1) {
		t.Errorf("RemoteReads(bx = t->x) should not contain p->x/p->y: %s", set11)
	}
	for _, want := range []struct{ p, f string }{
		{"p", "next"}, {"t", "x"}, {"t", "y"},
	} {
		if !setHas(set11, want.p, want.f, -1) {
			t.Errorf("RemoteReads(bx = t->x) missing (%s->%s): %s", want.p, want.f, set11)
		}
	}
}

// TestFigure7LoopExit reproduces the paper's key result: the loop writes p,
// so p-tuples die at the loop, while the t-tuples hoist out with frequency
// 11 (1 outside + 10 from the loop) and close-tuples appear after the loop.
func TestFigure7LoopExit(t *testing.T) {
	f, res := analyze(t, figure7Src, "example")

	// Before "p = head" (paper S1/S2): {(t->x,11), (t->y,11)}.
	pHead := findBasic(f, "p = head")
	set := res.Reads[simple.Stmt(pHead)]
	if !setHas(set, "t", "x", 11) {
		t.Errorf("set before 'p = head' should contain (t->x, 11): %s", set)
	}
	if !setHas(set, "t", "y", 11) {
		t.Errorf("set before 'p = head' should contain (t->y, 11): %s", set)
	}
	if setHas(set, "p", "x", -1) || setHas(set, "close", "x", -1) {
		t.Errorf("p/close tuples must not survive above the loop (p reassigned, close conditional): %s", set)
	}

	// Before "cx = close->x" (paper S3): close->x, close->y, t->x, t->y.
	cx := findBasic(f, "cx = close->x")
	set3 := res.Reads[simple.Stmt(cx)]
	for _, want := range []struct{ p, f string }{
		{"close", "x"}, {"close", "y"}, {"t", "x"}, {"t", "y"},
	} {
		if !setHas(set3, want.p, want.f, -1) {
			t.Errorf("RemoteReads(cx = close->x) missing (%s->%s): %s", want.p, want.f, set3)
		}
	}
}

// TestFrequencyAdjustments checks the paper's adjustFrequency rules: /2 for
// if branches, x10 for loops.
func TestFrequencyAdjustments(t *testing.T) {
	src := `
struct P { int a; int b; };
int g(P *p, int c) {
	int x;
	x = 0;
	if (c) {
		x = p->a;
	} else {
		x = p->b;
	}
	return x;
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	first := findBasic(f, "x = 0")
	set := res.Reads[simple.Stmt(first)]
	if !setHas(set, "p", "a", 0.5) {
		t.Errorf("(p->a) above the if should have frequency 0.5: %s", set)
	}
	if !setHas(set, "p", "b", 0.5) {
		t.Errorf("(p->b) above the if should have frequency 0.5: %s", set)
	}
}

// TestIfMergesSameLocation: reads of the same field in both branches merge
// by summing adjusted frequencies and unioning Dlists.
func TestIfMergesSameLocation(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p, int c) {
	int x;
	x = 0;
	if (c) {
		x = p->a;
	} else {
		x = p->a + 1;
	}
	return x;
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	first := findBasic(f, "x = 0")
	set := res.Reads[simple.Stmt(first)]
	tup := func() *placement.Tuple {
		for _, tu := range set.Tuples() {
			if tu.P.Name == "p" {
				return tu
			}
		}
		return nil
	}()
	if tup == nil {
		t.Fatalf("no (p->a) tuple: %s", set)
	}
	if tup.Freq != 1.0 {
		t.Errorf("merged frequency should be 0.5+0.5=1, got %v", tup.Freq)
	}
	if len(tup.D) != 2 {
		t.Errorf("merged Dlist should contain both read labels, got %v", tup.Labels())
	}
}

// TestWritesIntersection: the conservative rule for writes — only fields
// written on all alternatives may move below the conditional.
func TestWritesIntersection(t *testing.T) {
	src := `
struct P { int a; int b; };
void g(P *p, int c) {
	int y;
	if (c) {
		p->a = 1;
		p->b = 2;
	} else {
		p->a = 3;
	}
	y = c + 1;
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	// After the if (recorded on the statement following it): a is written
	// on both paths and may move below; b only on one.
	last := findBasic(f, "y = c + 1")
	set := res.Writes[simple.Stmt(last)]
	if !setHas(set, "p", "a", -1) {
		t.Errorf("(p->a) should be placeable after the if: %s", set)
	}
	if setHas(set, "p", "b", -1) {
		t.Errorf("(p->b) written on one branch only must not move below: %s", set)
	}
}

// TestWritesKilledByAliasedRead: a write tuple dies when the location is
// read through an alias.
func TestWritesKilledByAliasedRead(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p, P *q) {
	int x;
	p->a = 1;
	x = q->a;
	x = x + 1;
	return x;
}
int main() {
	P *s;
	s = alloc(P);
	return g(s, s);
}
`
	f, res := analyze(t, src, "g")
	// p and q may alias (main passes the same struct), so the write to
	// p->a cannot move below the read of q->a.
	read := findBasic(f, "x = q->a")
	setAfterRead := res.Writes[simple.Stmt(read)]
	if setHas(setAfterRead, "p", "a", -1) {
		t.Errorf("(p->a) write must be killed by the aliased read: %s", setAfterRead)
	}
}

// TestWritesKilledByReturn: a write may never float past a possible return.
func TestWritesKilledByReturn(t *testing.T) {
	src := `
struct P { int a; };
void g(P *p, int c) {
	p->a = 1;
	if (c) return;
	p->a = 2;
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		if iff, ok := s.(*simple.If); ok {
			_ = iff
			set := res.Writes[s]
			if setHas(set, "p", "a", -1) {
				t.Errorf("write tuple must not survive past a conditional return: %s", set)
			}
		}
	})
}

// TestReadsSurviveDirectWrite: per the paper, a direct write via p->f does
// not kill a read tuple (the transformation redirects both to one local
// copy); the crossing is recorded instead.
func TestReadsSurviveDirectWrite(t *testing.T) {
	src := `
struct P { int a; };
int g(P *p) {
	int x;
	int y;
	x = 0;
	p->a = 5;
	y = p->a;
	return x + y;
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	first := findBasic(f, "x = 0")
	set := res.Reads[simple.Stmt(first)]
	tup := func() *placement.Tuple {
		for _, tu := range set.Tuples() {
			if tu.P.Name == "p" {
				return tu
			}
		}
		return nil
	}()
	if tup == nil {
		t.Fatalf("read tuple should float above the direct write: %s", set)
	}
	if len(tup.CrossedW) != 1 {
		t.Errorf("the crossed store should be recorded, got %v", tup.CrossedW)
	}
}

// TestForallStepIsolation: a read in the forall step must not be placeable
// inside the (parallel, frame-copied) body.
func TestForallStepIsolation(t *testing.T) {
	src := `
struct N { int v; struct N *next; };
int g(N *head) {
	N *p;
	shared int s;
	writeto(&s, 0);
	forall (p = head; p != NULL; p = p->next) {
		addto(&s, p->v);
	}
	return valueof(&s);
}
int main() { return 0; }
`
	f, res := analyze(t, src, "g")
	// The body's addto argument read (p->v) may be in body sets; the step's
	// p->next read must not appear before any body statement.
	simple.WalkStmts(f.Body, func(s simple.Stmt) {
		fa, ok := s.(*simple.Forall)
		if !ok {
			return
		}
		for _, st := range fa.Body.Stmts {
			if set := res.Reads[st]; set != nil {
				if setHas(set, "p", "next", -1) {
					t.Errorf("step read (p->next) leaked into the forall body: %s", set)
				}
			}
		}
	})
}
