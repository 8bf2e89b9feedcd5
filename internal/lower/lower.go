// Package lower translates checked EARTH-C ASTs into SIMPLE form: structured
// three-address code in which every basic statement contains at most one
// indirect (possibly remote) memory operation. This is the simplification
// step the paper performs before communication optimization (compare Figure
// 3(a) to Figure 3(b)).
package lower

import (
	"fmt"
	"math"

	"repro/internal/earthc"
	"repro/internal/sema"
	"repro/internal/simple"
)

// Program lowers an entire checked program.
func Program(prog *sema.Program) (*simple.Program, error) {
	sp := &simple.Program{
		Structs:    make(map[string]*simple.StructLayout),
		GlobalInit: make(map[*simple.Var]int64),
	}
	for name, si := range prog.Structs {
		lay := &simple.StructLayout{
			Name:       name,
			Size:       si.Size,
			Offsets:    make(map[string]int),
			FieldSizes: make(map[string]int),
		}
		for _, f := range si.Def.Fields {
			lay.Offsets[f.Name] = si.Offsets[f.Name]
			lay.Fields = append(lay.Fields, f.Name)
			lay.FieldSizes[f.Name] = prog.SizeOf(f.Type)
		}
		sp.Structs[name] = lay
	}
	globals := make(map[*sema.Symbol]*simple.Var)
	for _, g := range prog.Globals {
		v := &simple.Var{
			Name: g.Name, Type: g.Type, Kind: simple.VarGlobal,
			Shared: g.Shared, Size: prog.SizeOf(g.Type),
		}
		sp.Globals = append(sp.Globals, v)
		globals[g] = v
	}
	for _, gd := range prog.File.Globals {
		if gd.Init == nil {
			continue
		}
		sym := prog.DeclSym[gd]
		v := globals[sym]
		if v == nil {
			continue
		}
		bits, ok := constBits(gd.Init)
		if !ok {
			return nil, fmt.Errorf("lower: global %s: initializer must be a constant", gd.Name)
		}
		sp.GlobalInit[v] = bits
	}
	for _, fd := range prog.File.Funcs {
		fi := prog.Funcs[fd.Name]
		lw := &lowerer{prog: prog, sp: sp, globals: globals,
			syms: make(map[*sema.Symbol]*simple.Var), used: make(map[string]bool)}
		fn, err := lw.fun(fi)
		if err != nil {
			return nil, err
		}
		sp.Funcs = append(sp.Funcs, fn)
	}
	return sp, nil
}

type lowerer struct {
	prog    *sema.Program
	sp      *simple.Program
	globals map[*sema.Symbol]*simple.Var
	fn      *simple.Func
	syms    map[*sema.Symbol]*simple.Var
	used    map[string]bool
	ntemp   int
	err     error
}

func (lw *lowerer) errorf(pos earthc.Pos, format string, args ...any) {
	if lw.err == nil {
		lw.err = fmt.Errorf("%s: %s: %s", lw.fn.Name, pos, fmt.Sprintf(format, args...))
	}
}

// uniqueName returns name, or name_2, name_3... if taken (shadowing).
func (lw *lowerer) uniqueName(name string) string {
	if !lw.used[name] {
		lw.used[name] = true
		return name
	}
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s_%d", name, i)
		if !lw.used[n] {
			lw.used[n] = true
			return n
		}
	}
}

func (lw *lowerer) newTemp(t earthc.Type) *simple.Var {
	lw.ntemp++
	v := &simple.Var{
		Name: fmt.Sprintf("temp%d", lw.ntemp), Type: t,
		Kind: simple.VarTemp, Size: lw.prog.SizeOf(t),
	}
	lw.used[v.Name] = true
	return lw.fn.AddLocal(v)
}

func (lw *lowerer) varFor(sym *sema.Symbol) *simple.Var {
	if sym.Kind == sema.SymGlobal {
		return lw.globals[sym]
	}
	if v, ok := lw.syms[sym]; ok {
		return v
	}
	kind := simple.VarLocal
	if sym.Kind == sema.SymParam {
		kind = simple.VarParam
	}
	v := &simple.Var{
		Name: lw.uniqueName(sym.Name), Type: sym.Type, Kind: kind,
		Shared: sym.Shared, Size: lw.prog.SizeOf(sym.Type),
	}
	lw.syms[sym] = v
	if kind == simple.VarLocal {
		lw.fn.AddLocal(v)
	}
	return v
}

func (lw *lowerer) fun(fi *sema.FuncInfo) (*simple.Func, error) {
	lw.fn = &simple.Func{Name: fi.Def.Name, Ret: fi.Ret}
	for _, p := range fi.Params {
		v := &simple.Var{
			Name: lw.uniqueName(p.Name), Type: p.Type, Kind: simple.VarParam,
			Size: lw.prog.SizeOf(p.Type),
		}
		lw.syms[p] = v
		lw.fn.Params = append(lw.fn.Params, v)
	}
	body := &simple.Seq{}
	lw.stmt(body, fi.Def.Body)
	lw.fn.Body = body
	return lw.fn, lw.err
}

// emit appends a basic statement to the sequence.
func (lw *lowerer) emit(seq *simple.Seq, b *simple.Basic) *simple.Basic {
	seq.Stmts = append(seq.Stmts, b)
	return b
}

func (lw *lowerer) assign(seq *simple.Seq, lhs simple.Lvalue, rhs simple.Rvalue) *simple.Basic {
	b := lw.fn.NewBasic(simple.KAssign)
	b.Lhs = lhs
	b.Rhs = rhs
	return lw.emit(seq, b)
}

// ------------------------------------------------------------- statements ---

func (lw *lowerer) stmt(seq *simple.Seq, s earthc.Stmt) {
	if lw.err != nil || s == nil {
		return
	}
	switch st := s.(type) {
	case *earthc.DeclStmt:
		sym := lw.prog.DeclSym[st.Decl]
		if sym == nil {
			return
		}
		v := lw.varFor(sym)
		if st.Decl.Init != nil {
			lw.assignTo(seq, v, st.Decl.Init, st.Decl.Pos)
		}
	case *earthc.ExprStmt:
		lw.exprStmt(seq, st.X)
	case *earthc.Block:
		for _, c := range st.Stmts {
			lw.stmt(seq, c)
		}
	case *earthc.ParSeq:
		par := &simple.Par{}
		for _, c := range st.Stmts {
			arm := &simple.Seq{}
			lw.stmt(arm, c)
			par.Arms = append(par.Arms, arm)
		}
		seq.Stmts = append(seq.Stmts, par)
	case *earthc.IfStmt:
		cond := lw.cond(seq, st.Cond)
		node := &simple.If{Cond: cond, Then: &simple.Seq{}, Else: &simple.Seq{}}
		lw.stmt(node.Then, st.Then)
		if st.Else != nil {
			lw.stmt(node.Else, st.Else)
		}
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.WhileStmt:
		eval := &simple.Seq{}
		cond := lw.cond(eval, st.Cond)
		node := &simple.While{Eval: eval, Cond: cond, Body: &simple.Seq{}}
		lw.stmt(node.Body, st.Body)
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.DoStmt:
		eval := &simple.Seq{}
		cond := lw.cond(eval, st.Cond)
		node := &simple.Do{Body: &simple.Seq{}, Eval: eval, Cond: cond}
		lw.stmt(node.Body, st.Body)
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.ForStmt:
		// DesugarLoops normally removes for loops; handle any survivors
		// (e.g. programs lowered without the desugar pass in tests).
		if st.Init != nil {
			lw.stmt(seq, st.Init)
		}
		eval := &simple.Seq{}
		var cond simple.Cond
		if st.Cond != nil {
			cond = lw.cond(eval, st.Cond)
		} else {
			cond = simple.Cond{Op: simple.TruthTest, X: simple.IntAtom{Val: 1}}
		}
		node := &simple.While{Eval: eval, Cond: cond, Body: &simple.Seq{}}
		lw.stmt(node.Body, st.Body)
		if st.Post != nil {
			lw.exprStmt(node.Body, st.Post)
		}
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.ForallStmt:
		if st.Init != nil {
			lw.stmt(seq, st.Init)
		}
		eval := &simple.Seq{}
		var cond simple.Cond
		if st.Cond != nil {
			cond = lw.cond(eval, st.Cond)
		} else {
			cond = simple.Cond{Op: simple.TruthTest, X: simple.IntAtom{Val: 1}}
		}
		node := &simple.Forall{Eval: eval, Cond: cond, Body: &simple.Seq{}, Step: &simple.Seq{}}
		lw.stmt(node.Body, st.Body)
		if st.Post != nil {
			lw.exprStmt(node.Step, st.Post)
		}
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.SwitchStmt:
		tag := lw.atom(seq, st.Tag)
		node := &simple.Switch{Tag: tag}
		for _, cc := range st.Cases {
			sc := &simple.SwitchCase{Body: &simple.Seq{}}
			if cc.Vals != nil {
				for _, v := range cc.Vals {
					sc.Vals = append(sc.Vals, constValue(v))
				}
			}
			for _, c := range cc.Body {
				lw.stmt(sc.Body, c)
			}
			node.Cases = append(node.Cases, sc)
		}
		seq.Stmts = append(seq.Stmts, node)
	case *earthc.ReturnStmt:
		b := lw.fn.NewBasic(simple.KReturn)
		if st.X != nil {
			want := lw.fn.Ret
			a := lw.atom(seq, st.X)
			b.Val = lw.promote(seq, a, lw.prog.TypeOf(st.X), want)
		}
		lw.emit(seq, b)
	case *earthc.BreakStmt, *earthc.ContinueStmt:
		lw.errorf(earthc.Pos{}, "break/continue must be desugared before lowering")
	case *earthc.GotoStmt:
		lw.errorf(st.Pos, "goto must be eliminated before lowering")
	case *earthc.LabeledStmt:
		lw.stmt(seq, st.Stmt)
	default:
		lw.errorf(earthc.Pos{}, "cannot lower statement %T", s)
	}
}

func constValue(e earthc.Expr) int64 {
	switch x := e.(type) {
	case *earthc.IntLit:
		return x.Val
	case *earthc.CharLit:
		return int64(x.Val)
	case *earthc.Unary:
		if x.Op == earthc.Neg {
			return -constValue(x.X)
		}
	}
	return 0
}

// cond lowers a boolean expression into a simplified Cond, emitting any
// required evaluation statements into seq.
func (lw *lowerer) cond(seq *simple.Seq, e earthc.Expr) simple.Cond {
	if bin, ok := e.(*earthc.Binary); ok {
		switch bin.Op {
		case earthc.Lt, earthc.Gt, earthc.Le, earthc.Ge, earthc.Eq, earthc.Ne:
			x := lw.atom(seq, bin.X)
			y := lw.atom(seq, bin.Y)
			return simple.Cond{Op: bin.Op, X: x, Y: y}
		}
	}
	if un, ok := e.(*earthc.Unary); ok && un.Op == earthc.LNot {
		// !x as a condition: x == 0 (or == NULL for pointers).
		x := lw.atom(seq, un.X)
		zero := lw.zeroFor(lw.prog.TypeOf(un.X))
		return simple.Cond{Op: earthc.Eq, X: x, Y: zero}
	}
	a := lw.atom(seq, e)
	return simple.Cond{Op: simple.TruthTest, X: a}
}

func (lw *lowerer) zeroFor(t earthc.Type) simple.Atom {
	switch tt := t.(type) {
	case *earthc.PtrType:
		return simple.NullAtom{}
	case *earthc.PrimType:
		if tt.Kind == earthc.Double {
			return simple.FloatAtom{Val: 0}
		}
	}
	return simple.IntAtom{Val: 0}
}

// promote inserts an int->double conversion when assigning an int-typed atom
// to a double destination.
func (lw *lowerer) promote(seq *simple.Seq, a simple.Atom, from, to earthc.Type) simple.Atom {
	if from == nil || to == nil {
		return a
	}
	fi, fd := isIntType(from), isDoubleType(from)
	td := isDoubleType(to)
	if td && fi && !fd {
		if ia, ok := a.(simple.IntAtom); ok {
			return simple.FloatAtom{Val: float64(ia.Val)}
		}
		t := lw.newTemp(&earthc.PrimType{Kind: earthc.Double})
		b := lw.fn.NewBasic(simple.KBuiltin)
		b.Dst = t
		b.Fun = "dbl"
		b.BFun = simple.Builtin(sema.BDbl)
		b.Args = []simple.Atom{a}
		lw.emit(seq, b)
		return simple.VarAtom{V: t}
	}
	return a
}

// constBits evaluates a constant initializer expression to its raw word.
func constBits(e earthc.Expr) (int64, bool) {
	switch x := e.(type) {
	case *earthc.IntLit:
		return x.Val, true
	case *earthc.FloatLit:
		return int64(math.Float64bits(x.Val)), true
	case *earthc.CharLit:
		return int64(x.Val), true
	case *earthc.NullLit:
		return 0, true
	case *earthc.Unary:
		if x.Op == earthc.Neg {
			v, ok := constBits(x.X)
			if !ok {
				return 0, false
			}
			if _, isF := x.X.(*earthc.FloatLit); isF {
				return int64(math.Float64bits(-math.Float64frombits(uint64(v)))), true
			}
			return -v, true
		}
	}
	return 0, false
}

func isIntType(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && (pt.Kind == earthc.Int || pt.Kind == earthc.Char)
}

func isDoubleType(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && pt.Kind == earthc.Double
}

func isStructType(t earthc.Type) bool {
	_, ok := t.(*earthc.StructRef)
	return ok
}
