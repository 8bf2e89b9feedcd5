package lower

import (
	"repro/internal/earthc"
	"repro/internal/sema"
	"repro/internal/simple"
)

// access describes the resolved target of a member/index/deref chain: either
// a (possibly remote) field reached through a pointer, or a field/element of
// a struct- or array-valued frame variable.
type access struct {
	remote bool
	ptr    *simple.Var // remote: base pointer
	base   *simple.Var // local: frame variable
	path   string      // dotted field path ("" for *p)
	off    int         // accumulated word offset
	idx    simple.Atom // local arrays: index atom
	scale  int         // local arrays: element size in words
	typ    earthc.Type // type of the accessed location
}

func joinPath(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "." + b
}

// resolveAccess lowers the *base* of a memory reference and returns its
// access description. Emits statements for nested pointer hops (p->next->x
// materializes t = p->next first).
func (lw *lowerer) resolveAccess(seq *simple.Seq, e earthc.Expr) (access, bool) {
	switch x := e.(type) {
	case *earthc.Ident:
		sym := lw.prog.SymOf(x)
		if sym == nil {
			return access{}, false
		}
		v := lw.varFor(sym)
		return access{base: v, typ: sym.Type}, true

	case *earthc.Member:
		if x.Arrow {
			// X is a pointer expression.
			pv := lw.ptrVar(seq, x.X)
			if pv == nil {
				return access{}, false
			}
			si := lw.prog.StructOf(lw.prog.TypeOf(x.X))
			if si == nil {
				return access{}, false
			}
			return access{
				remote: true, ptr: pv, path: x.Name,
				off: si.Offsets[x.Name], typ: si.FieldType(x.Name),
			}, true
		}
		// Dot: extend the access of X.
		inner, ok := lw.resolveAccess(seq, x.X)
		if !ok {
			return access{}, false
		}
		si := lw.prog.StructOf(inner.typ)
		if si == nil {
			lw.errorf(x.Pos, ". applied to non-struct value")
			return access{}, false
		}
		inner.path = joinPath(inner.path, x.Name)
		inner.off += si.Offsets[x.Name]
		inner.typ = si.FieldType(x.Name)
		return inner, true

	case *earthc.Index:
		inner, ok := lw.resolveAccess(seq, x.X)
		if !ok {
			return access{}, false
		}
		at, isArr := inner.typ.(*earthc.ArrayType)
		if !isArr {
			lw.errorf(x.Pos, "indexing non-array value")
			return access{}, false
		}
		if inner.remote {
			lw.errorf(x.Pos, "arrays are local storage; remote array access is not supported")
			return access{}, false
		}
		if inner.idx != nil {
			lw.errorf(x.Pos, "multidimensional indexing is not supported")
			return access{}, false
		}
		inner.idx = lw.atom(seq, x.I)
		inner.scale = lw.prog.SizeOf(at.Elem)
		inner.typ = at.Elem
		return inner, true

	case *earthc.Unary:
		if x.Op == earthc.Deref {
			pv := lw.ptrVar(seq, x.X)
			if pv == nil {
				return access{}, false
			}
			pt, _ := lw.prog.TypeOf(x.X).(*earthc.PtrType)
			var elem earthc.Type
			if pt != nil {
				elem = pt.Elem
			}
			return access{remote: true, ptr: pv, path: "", off: 0, typ: elem}, true
		}
	}
	lw.errorf(exprPos(e), "cannot resolve memory reference %T", e)
	return access{}, false
}

// ptrVar lowers a pointer-valued expression to a variable (emitting a temp
// load when needed).
func (lw *lowerer) ptrVar(seq *simple.Seq, e earthc.Expr) *simple.Var {
	a := lw.atom(seq, e)
	if v := simple.AtomVar(a); v != nil {
		return v
	}
	if _, isNull := a.(simple.NullAtom); isNull {
		// Dereferencing a literal NULL: let it through as a temp so the
		// simulator traps at run time.
		t := lw.newTemp(lw.prog.TypeOf(e))
		lw.assign(seq, simple.VarLV{V: t}, simple.AtomRV{A: a})
		return t
	}
	lw.errorf(exprPos(e), "expected pointer expression")
	return nil
}

// loadAccess materializes the value of an access into an atom (for scalar
// accesses).
func (lw *lowerer) loadAccess(seq *simple.Seq, a access) simple.Atom {
	if isStructType(a.typ) {
		lw.errorf(earthc.Pos{}, "struct value used where a scalar is required")
		return simple.IntAtom{}
	}
	t := lw.newTemp(a.typ)
	if a.remote {
		lw.assign(seq, simple.VarLV{V: t}, simple.LoadRV{P: a.ptr, Field: a.path, Off: a.off})
	} else if a.idx != nil || a.path != "" {
		lw.assign(seq, simple.VarLV{V: t}, simple.LocalLoadRV{
			Base: a.base, Field: a.path, Off: a.off, Idx: a.idx, Scale: a.scale,
		})
	} else {
		// Bare variable; no load needed.
		return simple.VarAtom{V: a.base}
	}
	return simple.VarAtom{V: t}
}

// --------------------------------------------------------------- lvalues ---

// assignTo lowers "v = rhs" for a scalar or struct variable destination.
func (lw *lowerer) assignTo(seq *simple.Seq, v *simple.Var, rhs earthc.Expr, pos earthc.Pos) {
	if isStructType(v.Type) {
		lw.structCopy(seq, access{base: v, typ: v.Type}, rhs, pos)
		return
	}
	a := lw.atom(seq, rhs)
	a = lw.promote(seq, a, lw.prog.TypeOf(rhs), v.Type)
	// Collapse "v = temp" where temp was just defined by a single basic
	// assign: write directly into v instead. (Keeps output close to the
	// paper's examples: ax = p->x, not temp = p->x; ax = temp.)
	if tv := simple.AtomVar(a); tv != nil && tv.Kind == simple.VarTemp {
		if n := len(seq.Stmts); n > 0 {
			if b, ok := seq.Stmts[n-1].(*simple.Basic); ok && b.Kind == simple.KAssign {
				if lv, ok := b.Lhs.(simple.VarLV); ok && lv.V == tv {
					b.Lhs = simple.VarLV{V: v}
					return
				}
			} else if b, ok := seq.Stmts[n-1].(*simple.Basic); ok &&
				(b.Kind == simple.KCall || b.Kind == simple.KBuiltin || b.Kind == simple.KAlloc) && b.Dst == tv {
				b.Dst = v
				return
			}
		}
	}
	lw.assign(seq, simple.VarLV{V: v}, simple.AtomRV{A: a})
}

// lowerAssign lowers an assignment expression, returning the stored atom.
func (lw *lowerer) lowerAssign(seq *simple.Seq, x *earthc.Assign) simple.Atom {
	// Compound assignment: a op= b  =>  a = a op b.
	rhs := x.Rhs
	if x.Op != earthc.PlainAssign {
		rhs = &earthc.Binary{Op: x.Op, X: x.Lhs, Y: x.Rhs, Pos: x.Pos}
		// Give the synthesized node a type so downstream promotion works.
		rhs.SetCheckedType(lw.prog.TypeOf(x.Lhs))
	}

	switch lhs := x.Lhs.(type) {
	case *earthc.Ident:
		sym := lw.prog.SymOf(lhs)
		if sym == nil {
			return simple.IntAtom{}
		}
		v := lw.varFor(sym)
		lw.assignTo(seq, v, rhs, x.Pos)
		return simple.VarAtom{V: v}
	default:
		acc, ok := lw.resolveAccess(seq, x.Lhs)
		if !ok {
			return simple.IntAtom{}
		}
		if isStructType(acc.typ) {
			lw.structCopy(seq, acc, rhs, x.Pos)
			return simple.IntAtom{}
		}
		a := lw.atom(seq, rhs)
		a = lw.promote(seq, a, lw.prog.TypeOf(rhs), acc.typ)
		if acc.remote {
			lw.assign(seq, simple.StoreLV{P: acc.ptr, Field: acc.path, Off: acc.off},
				simple.AtomRV{A: a})
		} else {
			lw.assign(seq, simple.LocalStoreLV{
				Base: acc.base, Field: acc.path, Off: acc.off, Idx: acc.idx, Scale: acc.scale,
			}, simple.AtomRV{A: a})
		}
		return a
	}
}

// structCopy lowers whole-struct assignment between any combination of
// local struct storage and pointer targets. The paper notes the compiler
// inserts blkmovs for assignments to entire structs.
func (lw *lowerer) structCopy(seq *simple.Seq, dst access, rhs earthc.Expr, pos earthc.Pos) {
	size := lw.prog.SizeOf(dst.typ)
	src, ok := lw.resolveAccess(seq, rhs)
	if !ok {
		return
	}
	if !isStructType(src.typ) || !earthc.SameType(dst.typ, src.typ) {
		lw.errorf(pos, "struct assignment requires matching struct types")
		return
	}
	if src.idx != nil || dst.idx != nil {
		lw.errorf(pos, "struct copies of array elements are not supported")
		return
	}
	b := lw.fn.NewBasic(simple.KBlkCopy)
	b.Size = size
	// Source.
	if src.remote {
		b.P = src.ptr
		b.Off = src.off
	} else {
		b.Local = src.base
		b.Off = src.off
	}
	// Destination.
	if dst.remote {
		b.P2 = dst.ptr
		b.Off2 = dst.off
	} else {
		b.Dst = dst.base
		b.Off2 = dst.off
	}
	if src.remote && dst.remote {
		// Remote-to-remote: stage through a local buffer (two block moves).
		tmp := lw.newTemp(dst.typ)
		b.Dst = tmp
		b.Off2 = 0
		b.P2 = nil
		lw.emit(seq, b)
		b2 := lw.fn.NewBasic(simple.KBlkCopy)
		b2.Size = size
		b2.Local = tmp
		b2.P2 = dst.ptr
		b2.Off2 = dst.off
		lw.emit(seq, b2)
		return
	}
	lw.emit(seq, b)
}

// ------------------------------------------------------------ expressions ---

// exprStmt lowers an expression evaluated for effect.
func (lw *lowerer) exprStmt(seq *simple.Seq, e earthc.Expr) {
	switch x := e.(type) {
	case *earthc.Assign:
		lw.lowerAssign(seq, x)
	case *earthc.IncDec:
		one := &earthc.IntLit{Val: 1}
		one.SetCheckedType(lw.prog.TypeOf(x.X))
		op := earthc.Add
		if x.Decr {
			op = earthc.Sub
		}
		as := &earthc.Assign{Op: op, Lhs: x.X, Rhs: one, Pos: x.Pos}
		as.SetCheckedType(lw.prog.TypeOf(x.X))
		lw.lowerAssign(seq, as)
	case *earthc.Call:
		lw.lowerCall(seq, x, false)
	default:
		// Evaluate for side effects (e.g. a bare valueof or comparison).
		lw.atom(seq, e)
	}
}

// atom lowers an expression to an operand atom, emitting statements into seq
// as needed.
func (lw *lowerer) atom(seq *simple.Seq, e earthc.Expr) simple.Atom {
	if lw.err != nil {
		return simple.IntAtom{}
	}
	switch x := e.(type) {
	case *earthc.IntLit:
		return simple.IntAtom{Val: x.Val}
	case *earthc.FloatLit:
		return simple.FloatAtom{Val: x.Val}
	case *earthc.CharLit:
		return simple.IntAtom{Val: int64(x.Val)}
	case *earthc.NullLit:
		return simple.NullAtom{}
	case *earthc.SizeofExpr:
		return simple.IntAtom{Val: int64(lw.prog.SizeOf(x.T))}
	case *earthc.Ident:
		sym := lw.prog.SymOf(x)
		if sym == nil {
			return simple.IntAtom{}
		}
		return simple.VarAtom{V: lw.varFor(sym)}
	case *earthc.Member, *earthc.Index:
		acc, ok := lw.resolveAccess(seq, e)
		if !ok {
			return simple.IntAtom{}
		}
		return lw.loadAccess(seq, acc)
	case *earthc.Unary:
		return lw.lowerUnary(seq, x)
	case *earthc.Binary:
		return lw.lowerBinary(seq, x)
	case *earthc.Assign:
		return lw.lowerAssign(seq, x)
	case *earthc.IncDec:
		// Value-position ++/--: materialize old/new value.
		old := lw.atom(seq, x.X)
		t := lw.newTemp(lw.prog.TypeOf(x.X))
		lw.assign(seq, simple.VarLV{V: t}, simple.AtomRV{A: old})
		lw.exprStmt(seq, &earthc.IncDec{X: x.X, Decr: x.Decr, Prefix: true, Pos: x.Pos})
		if x.Prefix {
			return lw.atom(seq, x.X)
		}
		return simple.VarAtom{V: t}
	case *earthc.Call:
		return lw.lowerCall(seq, x, true)
	case *earthc.CondExpr:
		t := lw.newTemp(lw.prog.TypeOf(x))
		cond := lw.cond(seq, x.C)
		node := &simple.If{Cond: cond, Then: &simple.Seq{}, Else: &simple.Seq{}}
		ta := lw.atom(node.Then, x.T)
		lw.assign(node.Then, simple.VarLV{V: t},
			simple.AtomRV{A: lw.promote(node.Then, ta, lw.prog.TypeOf(x.T), lw.prog.TypeOf(x))})
		fa := lw.atom(node.Else, x.F)
		lw.assign(node.Else, simple.VarLV{V: t},
			simple.AtomRV{A: lw.promote(node.Else, fa, lw.prog.TypeOf(x.F), lw.prog.TypeOf(x))})
		seq.Stmts = append(seq.Stmts, node)
		return simple.VarAtom{V: t}
	}
	lw.errorf(exprPos(e), "cannot lower expression %T", e)
	return simple.IntAtom{}
}

func (lw *lowerer) lowerUnary(seq *simple.Seq, x *earthc.Unary) simple.Atom {
	switch x.Op {
	case earthc.Neg:
		a := lw.atom(seq, x.X)
		switch c := a.(type) {
		case simple.IntAtom:
			return simple.IntAtom{Val: -c.Val}
		case simple.FloatAtom:
			return simple.FloatAtom{Val: -c.Val}
		}
		t := lw.newTemp(lw.prog.TypeOf(x))
		lw.assign(seq, simple.VarLV{V: t}, simple.UnaryRV{Op: earthc.Neg, X: a})
		return simple.VarAtom{V: t}
	case earthc.BNot:
		a := lw.atom(seq, x.X)
		t := lw.newTemp(lw.prog.TypeOf(x))
		lw.assign(seq, simple.VarLV{V: t}, simple.UnaryRV{Op: earthc.BNot, X: a})
		return simple.VarAtom{V: t}
	case earthc.LNot:
		a := lw.atom(seq, x.X)
		t := lw.newTemp(&earthc.PrimType{Kind: earthc.Int})
		lw.assign(seq, simple.VarLV{V: t},
			simple.BinaryRV{Op: earthc.Eq, X: a, Y: lw.zeroFor(lw.prog.TypeOf(x.X))})
		return simple.VarAtom{V: t}
	case earthc.Deref:
		acc, ok := lw.resolveAccess(seq, x)
		if !ok {
			return simple.IntAtom{}
		}
		return lw.loadAccess(seq, acc)
	case earthc.Addr:
		return lw.lowerAddr(seq, x)
	}
	lw.errorf(x.Pos, "cannot lower unary %s", x.Op)
	return simple.IntAtom{}
}

func (lw *lowerer) lowerAddr(seq *simple.Seq, x *earthc.Unary) simple.Atom {
	acc, ok := lw.resolveAccess(seq, x.X)
	if !ok {
		return simple.IntAtom{}
	}
	if acc.idx != nil {
		lw.errorf(x.Pos, "address of array element is not supported")
		return simple.IntAtom{}
	}
	t := lw.newTemp(lw.prog.TypeOf(x))
	if acc.remote {
		lw.assign(seq, simple.VarLV{V: t},
			simple.FieldAddrRV{P: acc.ptr, Field: acc.path, Off: acc.off})
	} else {
		lw.assign(seq, simple.VarLV{V: t}, simple.AddrRV{X: acc.base, Off: acc.off})
	}
	return simple.VarAtom{V: t}
}

func (lw *lowerer) lowerBinary(seq *simple.Seq, x *earthc.Binary) simple.Atom {
	switch x.Op {
	case earthc.LogAnd, earthc.LogOr:
		// Short-circuit: t = 0/1; if (x) { if (y) t = 1 } (mirrored for ||).
		t := lw.newTemp(&earthc.PrimType{Kind: earthc.Int})
		isAnd := x.Op == earthc.LogAnd
		var initVal, setVal int64 = 0, 1
		if !isAnd {
			initVal, setVal = 1, 0
		}
		lw.assign(seq, simple.VarLV{V: t}, simple.AtomRV{A: simple.IntAtom{Val: initVal}})
		outer := &simple.If{Cond: lw.condMaybeNeg(seq, x.X, !isAnd), Then: &simple.Seq{}, Else: &simple.Seq{}}
		inner := &simple.If{Cond: lw.condMaybeNeg(outer.Then, x.Y, !isAnd), Then: &simple.Seq{}, Else: &simple.Seq{}}
		lw.assign(inner.Then, simple.VarLV{V: t}, simple.AtomRV{A: simple.IntAtom{Val: setVal}})
		outer.Then.Stmts = append(outer.Then.Stmts, inner)
		seq.Stmts = append(seq.Stmts, outer)
		return simple.VarAtom{V: t}
	}

	xa := lw.atom(seq, x.X)
	ya := lw.atom(seq, x.Y)
	xt := lw.prog.TypeOf(x.X)
	yt := lw.prog.TypeOf(x.Y)
	// Numeric promotion: if either side is double, promote both.
	if isDoubleType(xt) || isDoubleType(yt) {
		xa = lw.promote(seq, xa, xt, &earthc.PrimType{Kind: earthc.Double})
		ya = lw.promote(seq, ya, yt, &earthc.PrimType{Kind: earthc.Double})
	}
	t := lw.newTemp(lw.prog.TypeOf(x))
	lw.assign(seq, simple.VarLV{V: t}, simple.BinaryRV{Op: x.Op, X: xa, Y: ya})
	return simple.VarAtom{V: t}
}

// condMaybeNeg lowers e as a condition, negating it when neg is set.
func (lw *lowerer) condMaybeNeg(seq *simple.Seq, e earthc.Expr, neg bool) simple.Cond {
	if neg {
		c := lw.cond(seq, e)
		return negateCond(c)
	}
	return lw.cond(seq, e)
}

func negateCond(c simple.Cond) simple.Cond {
	switch c.Op {
	case earthc.Lt:
		return simple.Cond{Op: earthc.Ge, X: c.X, Y: c.Y}
	case earthc.Gt:
		return simple.Cond{Op: earthc.Le, X: c.X, Y: c.Y}
	case earthc.Le:
		return simple.Cond{Op: earthc.Gt, X: c.X, Y: c.Y}
	case earthc.Ge:
		return simple.Cond{Op: earthc.Lt, X: c.X, Y: c.Y}
	case earthc.Eq:
		return simple.Cond{Op: earthc.Ne, X: c.X, Y: c.Y}
	case earthc.Ne:
		return simple.Cond{Op: earthc.Eq, X: c.X, Y: c.Y}
	case simple.TruthTest:
		return simple.Cond{Op: earthc.Eq, X: c.X, Y: simple.IntAtom{Val: 0}}
	}
	return c
}

// lowerCall lowers a function or intrinsic call; wantValue selects whether a
// destination temp is produced.
func (lw *lowerer) lowerCall(seq *simple.Seq, x *earthc.Call, wantValue bool) simple.Atom {
	info := lw.prog.CallOf(x)
	if info == nil {
		return simple.IntAtom{}
	}
	if info.Builtin != sema.NotBuiltin {
		return lw.lowerBuiltin(seq, x, info.Builtin, wantValue)
	}
	fi := info.Func
	b := lw.fn.NewBasic(simple.KCall)
	b.Fun = x.Fun
	for i, arg := range x.Args {
		a := lw.atom(seq, arg)
		if i < len(fi.Params) {
			a = lw.promote(seq, a, lw.prog.TypeOf(arg), fi.Params[i].Type)
		}
		b.Args = append(b.Args, a)
	}
	if x.Place != nil {
		pl := &simple.Placement{Kind: x.Place.Kind}
		if x.Place.Arg != nil {
			pl.Arg = lw.atom(seq, x.Place.Arg)
		}
		b.Place = pl
	}
	var result simple.Atom = simple.IntAtom{}
	if wantValue && !isVoidType(fi.Ret) {
		t := lw.newTemp(fi.Ret)
		b.Dst = t
		result = simple.VarAtom{V: t}
	}
	lw.emit(seq, b)
	return result
}

func isVoidType(t earthc.Type) bool {
	pt, ok := t.(*earthc.PrimType)
	return ok && pt.Kind == earthc.Void
}

func (lw *lowerer) lowerBuiltin(seq *simple.Seq, x *earthc.Call, bi sema.Builtin, wantValue bool) simple.Atom {
	switch bi {
	case sema.BAlloc, sema.BAllocOn:
		id := x.Args[0].(*earthc.Ident)
		b := lw.fn.NewBasic(simple.KAlloc)
		b.StructName = id.Name
		b.AllocSize = lw.sp.Structs[id.Name].Size
		if bi == sema.BAllocOn {
			b.Node = lw.atom(seq, x.Args[1])
		}
		t := lw.newTemp(&earthc.PtrType{Elem: &earthc.StructRef{Name: id.Name}})
		b.Dst = t
		lw.emit(seq, b)
		return simple.VarAtom{V: t}

	case sema.BWriteTo, sema.BAddTo, sema.BValueOf:
		sv := lw.sharedVarOf(x.Args[0])
		if sv == nil {
			return simple.IntAtom{}
		}
		b := lw.fn.NewBasic(simple.KBuiltin)
		b.Fun = x.Fun
		b.BFun = simple.Builtin(bi)
		b.ArgVars = []*simple.Var{sv}
		if bi != sema.BValueOf {
			va := lw.atom(seq, x.Args[1])
			va = lw.promote(seq, va, lw.prog.TypeOf(x.Args[1]), sv.Type)
			b.Args = []simple.Atom{va}
		}
		var result simple.Atom = simple.IntAtom{}
		if bi == sema.BValueOf {
			t := lw.newTemp(sv.Type)
			b.Dst = t
			result = simple.VarAtom{V: t}
		}
		lw.emit(seq, b)
		return result

	case sema.BPrintStr:
		b := lw.fn.NewBasic(simple.KBuiltin)
		b.Fun = x.Fun
		b.BFun = simple.Builtin(bi)
		if sl, ok := x.Args[0].(*earthc.StringLit); ok {
			b.StrArg = sl.Val
		}
		lw.emit(seq, b)
		return simple.IntAtom{}

	default:
		b := lw.fn.NewBasic(simple.KBuiltin)
		b.Fun = x.Fun
		b.BFun = simple.Builtin(bi)
		for _, arg := range x.Args {
			a := lw.atom(seq, arg)
			// sqrt/fabs/print_double accept ints; promote for a uniform VM.
			if bi == sema.BSqrt || bi == sema.BFabs || bi == sema.BPrintDouble {
				a = lw.promote(seq, a, lw.prog.TypeOf(arg), &earthc.PrimType{Kind: earthc.Double})
			}
			b.Args = append(b.Args, a)
		}
		var result simple.Atom = simple.IntAtom{}
		if wantValue {
			switch bi {
			case sema.BOwnerOf, sema.BMyNode, sema.BNumNodes, sema.BTrunc:
				t := lw.newTemp(&earthc.PrimType{Kind: earthc.Int})
				b.Dst = t
				result = simple.VarAtom{V: t}
			case sema.BSqrt, sema.BFabs, sema.BDbl:
				t := lw.newTemp(&earthc.PrimType{Kind: earthc.Double})
				b.Dst = t
				result = simple.VarAtom{V: t}
			}
		} else {
			switch bi {
			case sema.BSqrt, sema.BFabs, sema.BDbl, sema.BTrunc,
				sema.BOwnerOf, sema.BMyNode, sema.BNumNodes:
				// Pure builtins evaluated for effect: drop entirely.
				return simple.IntAtom{}
			}
		}
		lw.emit(seq, b)
		return result
	}
}

// sharedVarOf extracts the shared variable from an &sv intrinsic argument.
func (lw *lowerer) sharedVarOf(e earthc.Expr) *simple.Var {
	un, ok := e.(*earthc.Unary)
	if !ok || un.Op != earthc.Addr {
		return nil
	}
	id, ok := un.X.(*earthc.Ident)
	if !ok {
		return nil
	}
	sym := lw.prog.SymOf(id)
	if sym == nil {
		return nil
	}
	return lw.varFor(sym)
}

func exprPos(e earthc.Expr) earthc.Pos {
	switch x := e.(type) {
	case *earthc.Ident:
		return x.Pos
	case *earthc.Unary:
		return x.Pos
	case *earthc.Binary:
		return x.Pos
	case *earthc.Assign:
		return x.Pos
	case *earthc.Call:
		return x.Pos
	case *earthc.Member:
		return x.Pos
	case *earthc.Index:
		return x.Pos
	}
	return earthc.Pos{}
}
