package simple

import (
	"strings"
	"testing"

	"repro/internal/earthc"
)

func tv(name string) *Var { return &Var{Name: name, Type: &earthc.PrimType{Kind: earthc.Int}} }

func TestBasicTextForms(t *testing.T) {
	p := &Var{Name: "p", Type: &earthc.PtrType{Elem: &earthc.StructRef{Name: "P"}}}
	x := tv("x")
	bc := &Var{Name: "bcomm1", Kind: VarBComm, Size: 3}
	cases := []struct {
		b    *Basic
		want string
	}{
		{&Basic{Kind: KAssign, Lhs: VarLV{V: x}, Rhs: LoadRV{P: p, Field: "a", Off: 0}},
			"x = p->a;"},
		{&Basic{Kind: KAssign, Lhs: StoreLV{P: p, Field: "a"}, Rhs: AtomRV{A: IntAtom{Val: 3}}},
			"p->a = 3;"},
		{&Basic{Kind: KGetF, Dst: x, P: p, Field: "a"},
			"x = p->a; /* get_sync */"},
		{&Basic{Kind: KPutF, P: p, Field: "a", Val: VarAtom{V: x}},
			"p->a = x; /* put_sync */"},
		{&Basic{Kind: KPutF, P: p, Field: "a", Local: bc, Off2: 0},
			"p->a = bcomm1.a; /* put_sync */"},
		{&Basic{Kind: KBlkRead, P: p, Local: bc, Size: 3},
			"blkmov(p, &bcomm1, 3); /* read */"},
		{&Basic{Kind: KBlkWrite, P: p, Local: bc, Size: 3},
			"blkmov(&bcomm1, p, 3); /* write */"},
		{&Basic{Kind: KReturn, Val: VarAtom{V: x}},
			"return(x);"},
		{&Basic{Kind: KReturn},
			"return;"},
		{&Basic{Kind: KAlloc, Dst: x, StructName: "P"},
			"x = alloc(P);"},
	}
	for _, c := range cases {
		if got := BasicText(c.b); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestCondString(t *testing.T) {
	x, y := tv("x"), tv("y")
	c := Cond{Op: earthc.Lt, X: VarAtom{V: x}, Y: VarAtom{V: y}}
	if c.String() != "x < y" {
		t.Errorf("got %q", c.String())
	}
	tt := Cond{Op: TruthTest, X: VarAtom{V: x}}
	if tt.String() != "x" {
		t.Errorf("got %q", tt.String())
	}
	if len(c.Atoms()) != 2 || len(tt.Atoms()) != 1 {
		t.Error("Atoms() arity wrong")
	}
}

func TestEachSubseqCoverage(t *testing.T) {
	mk := func() (*Seq, *Seq, *Seq, *Seq) { return &Seq{}, &Seq{}, &Seq{}, &Seq{} }
	a, b, c, d := mk()
	cases := []struct {
		s    Stmt
		want int
	}{
		{&Seq{}, 1},
		{&If{Then: a, Else: b}, 2},
		{&While{Eval: a, Body: b}, 2},
		{&Do{Body: a, Eval: b}, 2},
		{&Forall{Eval: a, Head: d, Body: b, Step: c}, 4},
		{&Par{Arms: []*Seq{a, b}}, 2},
		{&Switch{Cases: []*SwitchCase{{Body: a}, {Body: b}, {Body: c}}}, 3},
		{&Basic{}, 0},
	}
	for _, cse := range cases {
		got := 0
		EachSubseq(cse.s, func(*Seq) { got++ })
		if got != cse.want {
			t.Errorf("%T: got %d subseqs, want %d", cse.s, got, cse.want)
		}
	}
}

func TestWalkBasicsOrder(t *testing.T) {
	f := &Func{Name: "f"}
	b1 := f.NewBasic(KAssign)
	b2 := f.NewBasic(KAssign)
	b3 := f.NewBasic(KReturn)
	f.Body = &Seq{Stmts: []Stmt{
		b1,
		&If{Then: &Seq{Stmts: []Stmt{b2}}, Else: &Seq{}},
		b3,
	}}
	var order []int
	WalkBasics(f.Body, func(b *Basic) { order = append(order, b.Label) })
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("walk order %v", order)
	}
}

func TestFuncVarByName(t *testing.T) {
	f := &Func{Name: "f"}
	p := tv("p")
	f.AddParam(p)
	l := f.AddLocal(tv("l"))
	if f.VarByName("p") != p || f.VarByName("l") != l {
		t.Error("VarByName lookup failed")
	}
	if f.VarByName("nope") != nil {
		t.Error("missing names must return nil")
	}
}

func TestFuncStringPrintsLabels(t *testing.T) {
	f := &Func{Name: "g", Ret: &earthc.PrimType{Kind: earthc.Int}}
	x := f.AddLocal(tv("x"))
	b := f.NewBasic(KAssign)
	b.Lhs = VarLV{V: x}
	b.Rhs = AtomRV{A: IntAtom{Val: 1}}
	r := f.NewBasic(KReturn)
	r.Val = VarAtom{V: x}
	f.Body = &Seq{Stmts: []Stmt{b, r}}
	out := FuncString(f, PrintOptions{Labels: true})
	if !strings.Contains(out, "S0: x = 1;") || !strings.Contains(out, "S1: return(x);") {
		t.Errorf("labels missing:\n%s", out)
	}
}

// TestEachFuncPanicNamesFunction: a body that panics on the third function
// re-raises the panic as a FuncPanic carrying that function's name, and no
// later function runs.
func TestEachFuncPanicNamesFunction(t *testing.T) {
	p := &Program{}
	for _, n := range []string{"a", "b", "f", "d", "e"} {
		p.Funcs = append(p.Funcs, &Func{Name: n})
	}
	var ran []string
	defer func() {
		r := recover()
		fp, ok := r.(FuncPanic)
		if !ok {
			t.Fatalf("recovered %#v, want a FuncPanic", r)
		}
		if fp.Func != "f" || fp.Value != "boom" {
			t.Errorf("FuncPanic = %+v, want function f value boom", fp)
		}
		if got := strings.Join(ran, ","); got != "a,b,f" {
			t.Errorf("functions run = %s, want a,b,f", got)
		}
	}()
	p.EachFunc(func(f *Func) {
		ran = append(ran, f.Name)
		if len(ran) == 3 {
			panic("boom")
		}
	})
	t.Fatal("EachFunc returned after its body panicked")
}

func TestFuncVarIDs(t *testing.T) {
	f := &Func{Name: "f"}
	a, b := f.AddParam(tv("a")), f.AddParam(tv("b"))
	x, y := f.AddLocal(tv("x")), f.AddLocal(tv("y"))
	for id, v := range []*Var{a, b, x, y} {
		if v.ID != id || f.VarByID(id) != v {
			t.Errorf("%s: ID %d, VarByID(%d) = %v", v.Name, v.ID, id, f.VarByID(id))
		}
	}
	if f.NumVars() != 4 || f.VarByID(4) != nil || f.VarByID(-1) != nil {
		t.Errorf("NumVars %d, VarByID(4) %v, VarByID(-1) %v", f.NumVars(), f.VarByID(4), f.VarByID(-1))
	}
	defer func() {
		if recover() == nil {
			t.Error("AddParam after AddLocal must panic")
		}
	}()
	f.AddParam(tv("c"))
}
